#include "link.hh"

#include "net/pcap_writer.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

#include <algorithm>

namespace f4t::net
{

namespace
{
std::function<void(Link &)> linkObserver;
bool batchingEnabled = true;
}

bool
datapathBatchingEnabled()
{
    return batchingEnabled;
}

void
setDatapathBatching(bool enabled)
{
    batchingEnabled = enabled;
}

void
Link::setCreationObserver(std::function<void(Link &)> observer)
{
    linkObserver = std::move(observer);
}

LinkDirection::LinkDirection(sim::Simulation &sim, std::string name,
                             double bandwidth_bits_per_sec,
                             sim::Tick propagation_delay,
                             const FaultModel &faults,
                             DeliveryTarget &target)
    : SimObject(sim, std::move(name)), bandwidth_(bandwidth_bits_per_sec),
      propagationDelay_(propagation_delay), faults_(faults),
      rng_(faults.seed), target_(target),
      packetsSent_(sim.stats(), statName("packetsSent"),
                   "packets accepted for transmission"),
      packetsDropped_(sim.stats(), statName("packetsDropped"),
                      "packets dropped by fault injection"),
      packetsDuplicated_(sim.stats(), statName("packetsDuplicated"),
                         "packets duplicated by fault injection"),
      packetsReordered_(sim.stats(), statName("packetsReordered"),
                        "packets delayed by fault injection"),
      bytesSent_(sim.stats(), statName("bytesSent"),
                 "wire bytes transmitted (incl. framing)")
{
    f4t_assert(bandwidth_ > 0, "link '%s' needs positive bandwidth",
               this->name().c_str());
}

sim::Tick
LinkDirection::send(Packet &&pkt)
{
    if (tap_)
        tap_(pkt);
    // The batched TX path hands packets over before their modeled
    // emission tick; everything timed below uses the readiness stamp,
    // never the (possibly earlier) host-event time of this call.
    sim::Tick ready =
        std::max(now(), static_cast<sim::Tick>(pkt.txReady));
    // Capture before fault injection: the pcap shows what the sender
    // put on the wire, the sidecar notes what the cable did to it.
    std::size_t pcap_record = 0;
    if (pcap_ != nullptr)
        pcap_record = pcap_->record(ready, pkt, pcapLabel_);
    ++packetsSent_;
    std::size_t wire_bytes = pkt.wireBytes();
    bytesSent_ += wire_bytes;

    // Serialization: the transmitter is busy for the wire time of this
    // packet starting at max(ready, busyUntil). Everything before the
    // start is head-of-line queueing, so the probe is stamped there.
    double seconds =
        static_cast<double>(wire_bytes) * 8.0 / bandwidth_;
    sim::Tick tx_time = sim::secondsToTicks(seconds);
    sim::Tick start = std::max(ready, busyUntil_);
    busyUntil_ = start + tx_time;
    sim::Tick arrival = busyUntil_ + propagationDelay_;
    probeAt(start, sim::fr::Kind::linkTx, pkt.flowHash32(), wire_bytes,
            pkt.isTcp() ? pkt.tcp().seq : 0);

    if (nextScheduledDrop_ < faults_.dropAtTicks.size() &&
        ready >= faults_.dropAtTicks[nextScheduledDrop_]) {
        ++nextScheduledDrop_;
        ++packetsDropped_;
        if (pcap_ != nullptr)
            pcap_->annotate(pcap_record, "drop(scheduled)");
        probe(sim::fr::Kind::linkFault, pkt.flowHash32(), 1);
        return arrival;
    }

    if (faults_.dropProbability > 0 && rng_.chance(faults_.dropProbability)) {
        ++packetsDropped_;
        if (pcap_ != nullptr)
            pcap_->annotate(pcap_record, "drop");
        probe(sim::fr::Kind::linkFault, pkt.flowHash32(), 2);
        return arrival;
    }

    if (faults_.duplicateProbability > 0 &&
        rng_.chance(faults_.duplicateProbability)) {
        ++packetsDuplicated_;
        if (pcap_ != nullptr)
            pcap_->annotate(pcap_record, "duplicate");
        probe(sim::fr::Kind::linkFault, pkt.flowHash32(), 3);
        Packet copy = pkt;
        target_.deliver(std::move(copy),
                        arrival + sim::nanosecondsToTicks(100));
    }

    if (faults_.reorderProbability > 0 &&
        rng_.chance(faults_.reorderProbability)) {
        ++packetsReordered_;
        sim::Tick extra = rng_.below(faults_.reorderMaxDelay + 1);
        if (pcap_ != nullptr)
            pcap_->annotate(pcap_record,
                            "reorder+" + std::to_string(extra) + "ps");
        probe(sim::fr::Kind::linkFault, pkt.flowHash32(), 4, extra);
        arrival += extra;
    }

    target_.deliver(std::move(pkt), arrival);
    return arrival;
}

void
DeliveryPort::deliver(Packet &&pkt, sim::Tick when)
{
    f4t_assert(sink_ != nullptr, "link '%s' has no sink attached",
               name().c_str());
    if (!datapathBatchingEnabled()) {
        // Per-packet reference path: one host event per delivery.
        queue().scheduleCallback(
            when, sim::prof::Cat::linkSwitch, "link.deliver",
            [this, p = std::move(pkt)]() mutable {
                sink_->receivePacket(std::move(p));
            });
        return;
    }

    // Batched path: queue the packet and fold back-to-back arrivals
    // into one drain event. The drain may move later to swallow a
    // whole wire train, but never more than maxBurstHold past the
    // earliest queued arrival and never beyond maxBurst packets, and
    // it may always move earlier; a packet is never delivered before
    // its modeled arrival tick.
    pending_.push_back(PendingDelivery{when, pushSeq_++, std::move(pkt)});
    std::push_heap(pending_.begin(), pending_.end(), laterDelivery);
    oldestPendingArrival_ = pending_.front().arrival;
    if (!drainEvent_.scheduled()) {
        queue().schedule(&drainEvent_, when);
        return;
    }
    sim::Tick drain_at = drainEvent_.when();
    if (when < drain_at)
        queue().reschedule(&drainEvent_, when);
    else if (when > drain_at && pending_.size() < maxBurst &&
             when - oldestPendingArrival_ <= maxBurstHold)
        queue().reschedule(&drainEvent_, when);
}

void
DeliveryPort::drainPending()
{
    sim::Tick due = now();
    // Deliver in modeled arrival order; push order breaks ties so a
    // same-tick duplicate follows its original. Heap pops yield exactly
    // that order, and packets still in flight (reordered far future)
    // stay put — a sink reacting by sending more traffic only pushes.
    while (!pending_.empty() && pending_.front().arrival <= due) {
        std::pop_heap(pending_.begin(), pending_.end(), laterDelivery);
        Packet pkt = std::move(pending_.back().pkt);
        pending_.pop_back();
        sink_->receivePacket(std::move(pkt));
    }

    if (pending_.empty())
        return;
    sim::Tick earliest = pending_.front().arrival;
    oldestPendingArrival_ = earliest;
    if (!drainEvent_.scheduled())
        queue().schedule(&drainEvent_, earliest);
    else if (drainEvent_.when() > earliest)
        queue().reschedule(&drainEvent_, earliest);
}

/**
 * One direction's partition bridge: DeliveryTarget for the transmit
 * half, CrossChannel for the executor. The sending partition appends
 * (arrival tick, packet) entries in transmit order during a window;
 * drainInto() replays them into the receiving port at the barrier.
 *
 * The propagation delay is the lookahead: a packet sent at tick t
 * inside window [T, T+L] arrives at busyUntil + propagation >= t + L,
 * at or after the next barrier, so a drain never schedules into a
 * partition's past. Fault perturbations only push arrivals later
 * (duplicate +100 ns, reorder +extra), so they inherit the bound. The
 * port assigns its tie-breaking sequence numbers in replay order, so
 * its burst heuristics see the stream a direct cable's port would.
 */
class LinkCrossing : public sim::CrossChannel, public DeliveryTarget
{
  public:
    LinkCrossing(DeliveryPort &port, sim::Tick lookahead)
        : port_(port), lookahead_(lookahead)
    {
        f4t_assert(lookahead_ > 0,
                   "link crossing into '%s' needs positive lookahead",
                   port.name().c_str());
    }

    void
    deliver(Packet &&pkt, sim::Tick arrival) override
    {
        pending_.push_back(CrossEvent{arrival, std::move(pkt)});
    }

    sim::Tick lookahead() const override { return lookahead_; }

    std::size_t
    drainInto() override
    {
        for (CrossEvent &event : pending_)
            port_.deliver(std::move(event.pkt), event.arrival);
        std::size_t delivered = pending_.size();
        pending_.clear();
        return delivered;
    }

  private:
    struct CrossEvent
    {
        sim::Tick arrival = 0;
        Packet pkt;
    };

    DeliveryPort &port_;
    sim::Tick lookahead_;
    /** This window's sends, in transmit order. */
    std::vector<CrossEvent> pending_;
};

namespace
{

/** A crossing into @p port when it sits in another simulation than
 *  the sender. Only an executor drains a crossing, at its barriers, so
 *  a direct cable (one simulation, no executor) delivers straight into
 *  its port instead. */
std::unique_ptr<LinkCrossing>
crossingFor(const sim::Simulation &from, DeliveryPort &port,
            sim::Tick lookahead)
{
    if (&from == &port.sim())
        return nullptr;
    return std::make_unique<LinkCrossing>(port, lookahead);
}

DeliveryTarget &
targetOf(const std::unique_ptr<LinkCrossing> &crossing, DeliveryPort &port)
{
    if (crossing)
        return *crossing;
    return port;
}

} // namespace

Link::Link(sim::Simulation &sim_a, sim::Simulation &sim_b, std::string name,
           double bandwidth_bits_per_sec, sim::Tick propagation_delay,
           const FaultModel &faults, std::optional<FaultModel> reverse)
    : SimObject(sim_a, std::move(name)),
      portAtB_(sim_b, this->name() + ".aToB"),
      portAtA_(sim_a, this->name() + ".bToA"),
      abCrossing_(crossingFor(sim_a, portAtB_, propagation_delay)),
      baCrossing_(crossingFor(sim_b, portAtA_, propagation_delay)),
      aToB_(sim_a, this->name() + ".aToB", bandwidth_bits_per_sec,
            propagation_delay, faults, targetOf(abCrossing_, portAtB_)),
      bToA_(sim_b, this->name() + ".bToA", bandwidth_bits_per_sec,
            propagation_delay, reverse ? *reverse : reverseFaults(faults),
            targetOf(baCrossing_, portAtA_))
{
    if (linkObserver && !abCrossing_)
        linkObserver(*this);
}

Link::~Link() = default;

void
Link::connect(PacketSink &endpoint_a, PacketSink &endpoint_b)
{
    portAtB_.setSink(&endpoint_b);
    portAtA_.setSink(&endpoint_a);
}

void
Link::registerChannels(sim::ParallelExecutor &executor)
{
    f4t_assert(abCrossing_ != nullptr,
               "link '%s' has both ends in one simulation; only a split "
               "cable has channels to register",
               name().c_str());
    executor.addChannel(*abCrossing_);
    executor.addChannel(*baCrossing_);
}

} // namespace f4t::net
