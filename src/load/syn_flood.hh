/**
 * @file
 * SYN-flood injector: adversarial control-path overload.
 *
 * The open-loop and churn generators stress the data path and the
 * legitimate connection lifecycle; a SYN flood attacks the *passive
 * open* path instead. The app crafts raw pure-SYN frames from rotating
 * spoofed sources and injects them into a switch port at a fixed rate.
 * Every SYN with a fresh 4-tuple makes the victim allocate a flow,
 * install a TCB, and answer a SYN-ACK toward an address the fabric has
 * no route for — the handshake never completes, so the victim is left
 * holding half-open flows that retransmit SYN-ACKs into a route-miss
 * drop until its flow table exhausts and later SYNs are refused at the
 * RX parser. Legitimate traffic sharing the victim then sees the
 * contention: FPC cycles burned on flood events, scheduler churn from
 * half-open installs, and (once the table is full) connection refusal.
 *
 * Injection is deterministic: fixed inter-arrival gaps and counter-
 * derived source tuples, so scenario fingerprints stay exact.
 */

#ifndef F4T_LOAD_SYN_FLOOD_HH
#define F4T_LOAD_SYN_FLOOD_HH

#include <cstdint>
#include <string>

#include "net/link.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace f4t::load
{

struct SynFloodConfig
{
    /** Victim address; every SYN targets this IP at targetPort. */
    net::Ipv4Address target;
    /** Victim MAC, used as the frame's L2 destination (the fabric
     *  routes on IP, but the victim's RX path checks addressing). */
    net::MacAddress targetMac;
    /** Injection rate; gaps are fixed at 1/rate for determinism. */
    double synsPerSec = 1e6;
    /** First SYN fires one gap after this tick; the flood runs until
     *  the run ends. */
    sim::Tick startAt = 0;
};

/**
 * Injects the flood into @p ingress (a switch port on the victim's
 * fabric — give the attacker its own port so no legitimate cable
 * carries the forged frames).
 */
class SynFloodApp : public sim::SimObject
{
  public:
    /** Victim port of every SYN (the KV service). */
    static constexpr std::uint16_t targetPort = 11211;

    SynFloodApp(sim::Simulation &sim, std::string name,
                net::PacketSink &ingress, const SynFloodConfig &config);

    void start();

    std::uint64_t sent() const { return sent_.value(); }

    /** Canonical flow hash of the most recent SYN — feed it to
     *  `f4t_blackbox --flow` to pull one flood flow's timeline out of
     *  a crash dump. */
    std::uint32_t lastFlowHash() const { return lastFlowHash_; }

  private:
    void inject();

    /** Spoofed source for the @p index-th SYN: 10.9.x.y addresses the
     *  star fabric never routes, so replies die as route misses. */
    net::Ipv4Address sourceIp(std::uint64_t index) const;

    net::PacketSink &ingress_;
    SynFloodConfig config_;
    sim::Tick gap_;
    std::uint32_t lastFlowHash_ = 0;
    sim::Counter sent_;
};

} // namespace f4t::load

#endif // F4T_LOAD_SYN_FLOOD_HH
