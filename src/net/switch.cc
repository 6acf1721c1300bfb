#include "net/switch.hh"

#include <algorithm>

namespace f4t::net
{

void
SwitchPort::receivePacket(Packet &&pkt)
{
    f4t_assert(switch_ != nullptr, "switch port used before wiring");
    switch_->ingress(index_, std::move(pkt));
}

Switch::Switch(sim::Simulation &sim, std::string name,
               const SwitchConfig &config)
    : SimObject(sim, std::move(name)),
      config_(config),
      ports_(config.numPorts),
      routeMisses_(sim.stats(), statName("routeMisses"),
                   "frames with no matching route (dropped)")
{
    f4t_assert(config_.numPorts >= 2, "switch '%s' needs >= 2 ports",
               this->name().c_str());
    egress_.reserve(config_.numPorts);
    for (std::size_t i = 0; i < config_.numPorts; ++i) {
        ports_[i].switch_ = this;
        ports_[i].index_ = i;
        auto e = std::make_unique<Egress>(
            sim, statName("port" + std::to_string(i)));
        e->drainEvent.owner = this;
        e->drainEvent.port = i;
        egress_.push_back(std::move(e));
    }
    sim.registerAudit(this, statName("egressAccounting"),
                      [this] { auditAccounting(); });
}

Switch::~Switch()
{
    sim().deregisterAudits(this);
}

SwitchPort &
Switch::port(std::size_t index)
{
    f4t_assert(index < ports_.size(), "switch '%s' has no port %zu",
               name().c_str(), index);
    return ports_[index];
}

void
Switch::attachTx(std::size_t index, LinkDirection &tx)
{
    f4t_assert(index < egress_.size(), "switch '%s' has no port %zu",
               name().c_str(), index);
    egress_[index]->tx = &tx;
}

void
Switch::addRoute(Ipv4Address ip, std::size_t index)
{
    f4t_assert(index < egress_.size(), "switch '%s' has no port %zu",
               name().c_str(), index);
    routes_[ip] = index;
}

void
Switch::ingress(std::size_t in_port, Packet &&pkt)
{
    ++egress_[in_port]->received;

    // Flood broadcasts and non-IP control frames (ARP) out every other
    // port; each copy is charged against the shared pool separately.
    if (pkt.eth.dst.isBroadcast() || !pkt.ip.has_value()) {
        for (std::size_t out = 0; out < egress_.size(); ++out) {
            if (out == in_port)
                continue;
            enqueue(out, Packet(pkt));
        }
        return;
    }

    auto route = routes_.find(pkt.ip->dst);
    if (route == routes_.end()) {
        ++routeMisses_;
        return;
    }
    enqueue(route->second, std::move(pkt));
}

void
Switch::enqueue(std::size_t out_port, Packet &&pkt)
{
    Egress &e = *egress_[out_port];
    std::size_t wire = pkt.wireBytes();
    if (sharedUsed_ + wire > config_.sharedEgressBytes) {
        ++e.droppedOverflow;
        probe(sim::fr::Kind::switchDrop, pkt.flowHash32(), out_port,
              sharedUsed_);
        return;
    }
    sharedUsed_ += wire;
    e.queuedBytes += wire;
    if (static_cast<double>(e.queuedBytes) > e.peakQueuedBytes.value())
        e.peakQueuedBytes = static_cast<double>(e.queuedBytes);
    ++e.enqueued;

    // The frame was produced by an upstream transmit path that may have
    // stamped a modeled readiness tick; it does not apply to the
    // switch's own transmitter.
    pkt.txReady = 0;

    probe(sim::fr::Kind::switchEnqueue, pkt.flowHash32(), out_port,
          e.queuedBytes);
    sim::Tick ready = now() + forwardingLatency;
    e.fifo.push_back(QueuedFrame{ready, std::move(pkt)});
    // An armed drain always targets the queue head, which is no later
    // than this frame; only an idle queue needs a fresh event.
    if (!e.drainEvent.scheduled())
        queue().schedule(&e.drainEvent, ready);
    sim().maybeAudit();
}

void
Switch::drain(std::size_t out_port)
{
    Egress &e = *egress_[out_port];
    f4t_assert(e.tx != nullptr,
               "switch '%s' port %zu has no transmitter attached",
               name().c_str(), out_port);
    while (!e.fifo.empty()) {
        QueuedFrame &head = e.fifo.front();
        sim::Tick start = std::max(head.readyAt, e.tx->busyUntil());
        if (start > now()) {
            queue().schedule(&e.drainEvent, start);
            return;
        }
        Packet pkt = std::move(head.pkt);
        std::size_t wire = pkt.wireBytes();
        e.fifo.pop_front();
        f4t_assert(e.queuedBytes >= wire && sharedUsed_ >= wire,
                   "switch '%s' egress byte accounting underflow",
                   name().c_str());
        e.queuedBytes -= wire;
        sharedUsed_ -= wire;
        ++e.forwarded;
        e.bytesForwarded += wire;
        probe(sim::fr::Kind::switchForward, pkt.flowHash32(), out_port,
              wire);
        e.tx->send(std::move(pkt));
    }
}

void
Switch::auditAccounting() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < egress_.size(); ++i) {
        const Egress &e = *egress_[i];
        std::size_t recount = 0;
        for (const QueuedFrame &q : e.fifo)
            recount += q.pkt.wireBytes();
        f4t_assert(recount == e.queuedBytes,
                   "switch '%s' port %zu queuedBytes %zu != recount %zu",
                   name().c_str(), i, e.queuedBytes, recount);
        f4t_assert(e.enqueued.value() ==
                       e.forwarded.value() + e.fifo.size(),
                   "switch '%s' port %zu frame conservation broken",
                   name().c_str(), i);
        total += e.queuedBytes;
    }
    f4t_assert(total == sharedUsed_,
               "switch '%s' shared pool %zu != per-port sum %zu",
               name().c_str(), sharedUsed_, total);
    f4t_assert(sharedUsed_ <= config_.sharedEgressBytes,
               "switch '%s' shared pool over capacity", name().c_str());
}

std::uint64_t
Switch::enqueued(std::size_t index) const
{
    return egress_[index]->enqueued.value();
}

std::uint64_t
Switch::forwarded(std::size_t index) const
{
    return egress_[index]->forwarded.value();
}

std::uint64_t
Switch::droppedOverflow(std::size_t index) const
{
    return egress_[index]->droppedOverflow.value();
}

std::uint64_t
Switch::bytesForwarded(std::size_t index) const
{
    return egress_[index]->bytesForwarded.value();
}

std::uint64_t
Switch::received(std::size_t index) const
{
    return egress_[index]->received.value();
}

std::size_t
Switch::queuedBytes(std::size_t index) const
{
    return egress_[index]->queuedBytes;
}

std::size_t
Switch::peakQueuedBytes(std::size_t index) const
{
    return static_cast<std::size_t>(egress_[index]->peakQueuedBytes.value());
}

std::uint64_t
Switch::totalForwarded() const
{
    std::uint64_t total = 0;
    for (const auto &e : egress_)
        total += e->forwarded.value();
    return total;
}

std::uint64_t
Switch::totalDropped() const
{
    std::uint64_t total = 0;
    for (const auto &e : egress_)
        total += e->droppedOverflow.value();
    return total;
}

} // namespace f4t::net
