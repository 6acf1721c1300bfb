/**
 * @file
 * Output-queued Ethernet switch with a shared, finite egress buffer.
 *
 * The two-node testbeds cable endpoints directly, which can never show
 * open-loop queue buildup or incast collapse: those need N clients
 * ganging up on one server port. The Switch models the minimal fabric
 * that produces them — store-and-forward, output-queued, with all
 * egress FIFOs drawing on one shared byte pool (the common shallow-
 * buffer merchant-silicon arrangement). When an arriving frame does
 * not fit in the remaining pool the frame is tail-dropped at its
 * egress port and counted; TCP's loss recovery does the rest, which is
 * exactly the dynamics the incast scenarios measure.
 *
 * Wiring reuses the point-to-point cable model unchanged: each switch
 * port is the PacketSink end of an ordinary Link toward one endpoint,
 * and the switch transmits through that cable's other LinkDirection.
 * Egress pacing keys off LinkDirection::busyUntil(), so serialization
 * timing, fault injection, and pcap capture on the attached cables
 * all behave exactly as on a direct cable. Because a port's TX half
 * lives in the same partition as the switch, the model works
 * unmodified when a cable's far end sits in another partition: only
 * that cable's own crossing carries packets between partitions.
 *
 * Forwarding is static: routes are installed per destination IPv4
 * address (addRoute), frames to the broadcast MAC or without an IPv4
 * header (ARP) flood to every port except the ingress. There is no
 * MAC learning — the testbeds pre-install ARP entries anyway, and a
 * deterministic route table keeps the differential contract trivial.
 */

#ifndef F4T_NET_SWITCH_HH
#define F4T_NET_SWITCH_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace f4t::net
{

class Switch;

/** One attachment point: the PacketSink a cable delivers into. */
class SwitchPort : public PacketSink
{
  public:
    void receivePacket(Packet &&pkt) override;

  private:
    friend class Switch;
    Switch *switch_ = nullptr;
    std::size_t index_ = 0;
};

struct SwitchConfig
{
    std::size_t numPorts = 2;
    /** Shared egress pool, in wire bytes (frame + framing overhead),
     *  summed across every port's queued frames. */
    std::size_t sharedEgressBytes = 256 * 1024;
};

class Switch : public sim::SimObject
{
  public:
    /** Store-and-forward pipeline latency per frame (ingress to
     *  egress-queue admission). */
    static constexpr sim::Tick forwardingLatency =
        sim::nanosecondsToTicks(300);

    Switch(sim::Simulation &sim, std::string name, const SwitchConfig &config);
    ~Switch() override;

    /** The sink a cable's endpoint-facing direction delivers into. */
    SwitchPort &port(std::size_t index);

    /**
     * The transmit half the switch uses to reach the endpoint behind
     * port @p index (the other direction of the same cable). Not
     * owned; must outlive traffic through the switch.
     */
    void attachTx(std::size_t index, LinkDirection &tx);

    /** Install a static route: frames for @p ip leave via @p index. */
    void addRoute(Ipv4Address ip, std::size_t index);

    std::size_t numPorts() const { return ports_.size(); }

    // --- per-port statistics --------------------------------------------

    /** Frames accepted into port @p index's egress FIFO. */
    std::uint64_t enqueued(std::size_t index) const;
    /** Frames handed to port @p index's transmitter. */
    std::uint64_t forwarded(std::size_t index) const;
    /** Frames tail-dropped at port @p index (shared pool full). */
    std::uint64_t droppedOverflow(std::size_t index) const;
    /** Wire bytes handed to port @p index's transmitter. */
    std::uint64_t bytesForwarded(std::size_t index) const;
    /** Frames that arrived on port @p index. */
    std::uint64_t received(std::size_t index) const;
    /** Wire bytes currently queued for port @p index. */
    std::size_t queuedBytes(std::size_t index) const;
    /** Deepest the port's egress queue ever got, in wire bytes. */
    std::size_t peakQueuedBytes(std::size_t index) const;

    // --- whole-switch statistics ----------------------------------------

    std::uint64_t totalForwarded() const;
    std::uint64_t totalDropped() const;
    /** Frames with an IPv4 destination no route matched (dropped). */
    std::uint64_t routeMisses() const { return routeMisses_.value(); }
    /** Wire bytes currently held across all egress queues. */
    std::size_t sharedPoolUsed() const { return sharedUsed_; }
    std::size_t sharedPoolCapacity() const { return config_.sharedEgressBytes; }

  private:
    struct QueuedFrame
    {
        sim::Tick readyAt = 0; ///< store-and-forward admission tick
        Packet pkt;
    };

    struct DrainEvent : public sim::Event
    {
        DrainEvent() : Event(defaultPriority, sim::prof::Cat::linkSwitch) {}
        void process() override { owner->drain(port); }
        std::string description() const override
        {
            return owner->name() + ".port" + std::to_string(port) + ".drain";
        }
        Switch *owner = nullptr;
        std::size_t port = 0;
    };

    struct Egress
    {
        explicit Egress(sim::Simulation &sim, const std::string &prefix)
            : enqueued(sim.stats(), prefix + ".enqueued",
                       "frames admitted to the egress queue"),
              forwarded(sim.stats(), prefix + ".forwarded",
                        "frames handed to the transmitter"),
              droppedOverflow(sim.stats(), prefix + ".droppedOverflow",
                              "frames tail-dropped, shared pool full"),
              bytesForwarded(sim.stats(), prefix + ".bytesForwarded",
                             "wire bytes handed to the transmitter"),
              received(sim.stats(), prefix + ".received",
                       "frames that arrived on this port"),
              peakQueuedBytes(sim.stats(), prefix + ".peakQueuedBytes",
                              "deepest egress occupancy, wire bytes")
        {}

        LinkDirection *tx = nullptr;
        std::deque<QueuedFrame> fifo;
        std::size_t queuedBytes = 0;
        DrainEvent drainEvent;

        sim::Counter enqueued;
        sim::Counter forwarded;
        sim::Counter droppedOverflow;
        sim::Counter bytesForwarded;
        sim::Counter received;
        sim::Scalar peakQueuedBytes;
    };

    friend class SwitchPort;

    void ingress(std::size_t in_port, Packet &&pkt);
    void enqueue(std::size_t out_port, Packet &&pkt);
    void drain(std::size_t out_port);
    void auditAccounting() const;

    SwitchConfig config_;
    std::vector<SwitchPort> ports_;
    std::vector<std::unique_ptr<Egress>> egress_;
    // std::map: deterministic iteration, and route tables are tiny.
    std::map<Ipv4Address, std::size_t> routes_;
    std::size_t sharedUsed_ = 0;
    sim::Counter routeMisses_;
};

} // namespace f4t::net

#endif // F4T_NET_SWITCH_HH
