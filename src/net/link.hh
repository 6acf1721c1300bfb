/**
 * @file
 * Full-duplex point-to-point link model.
 *
 * The evaluation testbed directly connects two endpoints (NIC-to-NIC,
 * NIC-to-FtEngine, or FtEngine-to-FtEngine) with a 100 Gbps cable.
 * Each direction serializes packets at the configured bandwidth —
 * charging the full wire footprint including preamble, IFG, and FCS —
 * and then delivers after the propagation delay.
 *
 * The model is split along the cable: LinkDirection is the transmit
 * half (serialization timing, fault injection, stats, capture) and
 * DeliveryPort is the receive half (arrival ordering and burst-folded
 * handoff to the sink). Each half lives in its own endpoint's
 * Simulation. When both ends share one, a direction delivers straight
 * into the receiving port; when they sit in different executor
 * partitions, a LinkCrossing carries the direction across and
 * the propagation delay is exported as the conservative lookahead
 * (registerChannels). Both arrangements run the identical delivery
 * code on the identical (arrival, order) stream, which is what keeps
 * partitioned runs byte-exact against the serial oracle.
 *
 * A FaultInjector can drop, duplicate, or delay (reorder) packets with
 * configured probabilities; the congestion-control experiments
 * (Fig. 14) and the end-to-end reliability property tests use it.
 */

#ifndef F4T_NET_LINK_HH
#define F4T_NET_LINK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace f4t::sim
{
class ParallelExecutor;
}

namespace f4t::net
{

class LinkCrossing;
class PcapWriter;

/** Anything that can accept a packet from a link. */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;
    virtual void receivePacket(Packet &&pkt) = 0;
};

/**
 * Process-wide switch for the batched data path. When on (the
 * default), the packet generator hands segments to the link
 * synchronously (stamping Packet::txReady instead of scheduling one
 * host event per segment) and each DeliveryPort groups back-to-back
 * arrivals into one bounded burst per delivery event. Wire timing —
 * serialization start, busy time, arrival tick — is computed
 * identically in both modes; only host-event interleaving (and thus
 * delivery callback timing within the burst-hold window) differs.
 * The differential fuzz tests run both modes and require byte-exact
 * stream agreement.
 */
bool datapathBatchingEnabled();
void setDatapathBatching(bool enabled);

/** Probabilistic packet perturbation. All probabilities default to 0. */
struct FaultModel
{
    double dropProbability = 0.0;
    double duplicateProbability = 0.0;
    /** Probability of delaying a packet by an extra random interval. */
    double reorderProbability = 0.0;
    /** Maximum extra delay applied to reordered packets. */
    sim::Tick reorderMaxDelay = sim::microsecondsToTicks(50);
    /**
     * Deterministic drop schedule: the first packet sent at or after
     * each listed tick is dropped (sorted ascending). Used by the
     * congestion-control comparison (Fig. 14) so two independent
     * simulations see losses at identical instants.
     */
    std::vector<sim::Tick> dropAtTicks;
    std::uint64_t seed = 1;
};

/**
 * Where a transmit half sends its survivors: the receiving DeliveryPort
 * when both ends share a simulation, or a LinkCrossing that replays
 * into that port at the next window barrier.
 */
class DeliveryTarget
{
  public:
    virtual ~DeliveryTarget() = default;
    /** Hand over a packet that arrives at absolute tick @p arrival. */
    virtual void deliver(Packet &&pkt, sim::Tick arrival) = 0;
};

/**
 * Receive half of a link direction: orders packets by modeled arrival
 * tick and hands them to the sink, folding back-to-back arrivals into
 * bounded bursts when the batched data path is on. Lives in the
 * *receiving* endpoint's simulation; its inputs are (packet, arrival)
 * pairs in transmit order, so its behavior is a pure function of that
 * stream regardless of which side of a partition boundary produced it.
 */
class DeliveryPort : public sim::SimObject, public DeliveryTarget
{
  public:
    DeliveryPort(sim::Simulation &sim, std::string name)
        : SimObject(sim, std::move(name))
    {}

    /** Connect the receiving end. Must be set before traffic flows. */
    void setSink(PacketSink *sink) { sink_ = sink; }

    void deliver(Packet &&pkt, sim::Tick arrival) override;

    /** Packets one drain event may hand to the sink (burst bound). */
    static constexpr std::size_t maxBurst = 16;
    /** Longest a due packet may wait for trailing burst members. */
    static constexpr sim::Tick maxBurstHold = sim::nanosecondsToTicks(600);

  private:
    void drainPending();

    struct DrainEvent : public sim::Event
    {
        explicit DrainEvent(DeliveryPort &owner)
            : Event(defaultPriority, sim::prof::Cat::linkSwitch),
              owner_(owner)
        {}
        void process() override { owner_.drainPending(); }
        std::string description() const override
        {
            return owner_.name() + ".deliver";
        }
        DeliveryPort &owner_;
    };

    struct PendingDelivery
    {
        sim::Tick arrival = 0;
        std::uint64_t seq = 0; ///< push order; ties on arrival keep it
        Packet pkt;
    };

    /** Min-heap order on (arrival, push seq) for the std heap calls. */
    static bool
    laterDelivery(const PendingDelivery &a, const PendingDelivery &b)
    {
        return a.arrival != b.arrival ? a.arrival > b.arrival
                                      : a.seq > b.seq;
    }

    PacketSink *sink_ = nullptr;
    DrainEvent drainEvent_{*this};
    /** Min-heap on (arrival, seq): a drain pops only matured packets,
     *  so far-future deliveries are never re-sorted (under fan-in the
     *  shared wire stretches arrivals far past the drain tick). */
    std::vector<PendingDelivery> pending_;
    std::uint64_t pushSeq_ = 0;
    sim::Tick oldestPendingArrival_ = 0;
};

/**
 * Transmit half of a link direction. Owns its serialization state (the
 * time the transmitter is busy until) so both directions are
 * independent, as on a real full-duplex cable. Fault injection runs
 * here — on the sending side — so the injector's RNG stream is
 * consumed in transmit order even when the receiver lives in another
 * partition.
 */
class LinkDirection : public sim::SimObject
{
  public:
    /** Deliveries go to @p target, which must outlive traffic on this
     *  direction. */
    LinkDirection(sim::Simulation &sim, std::string name,
                  double bandwidth_bits_per_sec,
                  sim::Tick propagation_delay, const FaultModel &faults,
                  DeliveryTarget &target);

    /**
     * Test-only hook observing every packet accepted by send(), before
     * fault injection. The packet is mutable so harnesses can corrupt
     * payload bytes deliberately; trace capture uses it read-only.
     */
    using Tap = std::function<void(Packet &)>;
    void setTap(Tap tap) { tap_ = std::move(tap); }

    /**
     * Attach a pcap capture (see net/pcap_writer.hh). Every accepted
     * frame is recorded before fault injection; drop/duplicate/reorder
     * decisions are annotated in the writer's sidecar index. The
     * writer is not owned and must outlive traffic on this direction.
     */
    void
    attachPcap(PcapWriter *writer, const char *label)
    {
        pcap_ = writer;
        pcapLabel_ = label;
    }

    /** Queue a packet for transmission; returns the delivery tick. */
    sim::Tick send(Packet &&pkt);

    std::uint64_t packetsSent() const { return packetsSent_.value(); }
    std::uint64_t packetsDropped() const { return packetsDropped_.value(); }
    std::uint64_t bytesSent() const { return bytesSent_.value(); }

    double bandwidthBitsPerSec() const { return bandwidth_; }
    sim::Tick propagationDelay() const { return propagationDelay_; }
    /** Tick the transmitter finishes serializing everything accepted
     *  so far; a store-and-forward device (net/switch.hh) paces its
     *  egress drain off this instead of guessing wire timing. */
    sim::Tick busyUntil() const { return busyUntil_; }

    // Burst constants kept visible here for existing call sites.
    static constexpr std::size_t maxBurst = DeliveryPort::maxBurst;
    static constexpr sim::Tick maxBurstHold = DeliveryPort::maxBurstHold;

  private:
    Tap tap_;
    PcapWriter *pcap_ = nullptr;
    const char *pcapLabel_ = "";
    double bandwidth_;
    sim::Tick propagationDelay_;
    sim::Tick busyUntil_ = 0;
    FaultModel faults_;
    std::size_t nextScheduledDrop_ = 0;
    sim::Random rng_;
    DeliveryTarget &target_;

    sim::Counter packetsSent_;
    sim::Counter packetsDropped_;
    sim::Counter packetsDuplicated_;
    sim::Counter packetsReordered_;
    sim::Counter bytesSent_;
};

/**
 * A bidirectional cable built from two LinkDirections. Endpoint A
 * lives in sim_a and endpoint B in sim_b: each direction transmits
 * from its sender's simulation into a port in its receiver's. Pass
 * the same Simulation twice (or use the one-Simulation form) for a
 * direct cable; two different ones make a split cable, whose
 * crossings the executor advancing both must learn through
 * registerChannels().
 */
class Link : public sim::SimObject
{
  public:
    /**
     * @param faults   fault model of the A->B direction
     * @param reverse  fault model of the B->A direction; defaults to
     *                 reverseFaults(faults)
     */
    Link(sim::Simulation &sim_a, sim::Simulation &sim_b, std::string name,
         double bandwidth_bits_per_sec,
         sim::Tick propagation_delay = sim::nanosecondsToTicks(500),
         const FaultModel &faults = {},
         std::optional<FaultModel> reverse = {});

    /** Direct cable: both endpoints in @p sim. */
    Link(sim::Simulation &sim, std::string name,
         double bandwidth_bits_per_sec,
         sim::Tick propagation_delay = sim::nanosecondsToTicks(500),
         const FaultModel &faults = {},
         std::optional<FaultModel> reverse = {})
        : Link(sim, sim, std::move(name), bandwidth_bits_per_sec,
               propagation_delay, faults, std::move(reverse))
    {}

    ~Link() override;

    /** Attach the two endpoints; direction A->B and B->A. */
    void connect(PacketSink &endpoint_a, PacketSink &endpoint_b);

    /** Direction used by endpoint A to reach endpoint B (in sim_a). */
    LinkDirection &aToB() { return aToB_; }
    /** Direction used by endpoint B to reach endpoint A (in sim_b). */
    LinkDirection &bToA() { return bToA_; }

    /** Register both crossings (lookahead = propagation delay) with
     *  the executor advancing both partitions; split cables only. */
    void registerChannels(sim::ParallelExecutor &executor);

    /** Capture both directions into one pcap file (interleaved). */
    void
    attachPcap(PcapWriter *writer)
    {
        aToB_.attachPcap(writer, "a->b");
        bToA_.attachPcap(writer, "b->a");
    }

    /**
     * Process-wide hook observing the construction of direct (one
     * Simulation) cables, so a CLI layer (bench::Obs) can attach pcap
     * writers to every link a binary creates without per-bench
     * plumbing. Split cables are skipped: the executor runs one
     * partition's whole window before the other's, so their two
     * directions' records would reach the shared file out of tick
     * order. Empty to uninstall.
     */
    static void setCreationObserver(std::function<void(Link &)> observer);

    /** Derive the default reverse-direction fault model (decorrelated
     *  RNG seed, same rates). */
    static FaultModel
    reverseFaults(const FaultModel &faults)
    {
        FaultModel reverse = faults;
        reverse.seed = faults.seed * 2654435761ULL + 1;
        return reverse;
    }

  private:
    // Receive halves live in the *destination* simulations and carry
    // their direction's name, so drain events read "<link>.aToB.deliver"
    // wherever the port sits.
    DeliveryPort portAtB_; ///< in sim_b; receives the A->B direction
    DeliveryPort portAtA_; ///< in sim_a; receives the B->A direction
    /** Present only when the ends sit in different simulations. */
    std::unique_ptr<LinkCrossing> abCrossing_;
    std::unique_ptr<LinkCrossing> baCrossing_;
    LinkDirection aToB_; ///< in sim_a
    LinkDirection bToA_; ///< in sim_b
};

} // namespace f4t::net

#endif // F4T_NET_LINK_HH
