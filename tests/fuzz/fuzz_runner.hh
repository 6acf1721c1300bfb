/**
 * @file
 * Fuzz runner: executes one Scenario on a chosen world flavor and
 * collects everything a failure report needs — the oracle verdict, the
 * ledger digest for differential comparison, and a bounded tail of the
 * packet trace captured through the link taps.
 *
 * runDifferential() runs the same seed on all four worlds (the
 * FtEngine pair in one Simulation and split into two executor
 * partitions, FtEngine/Linux, Linux/Linux) and asserts they agree on
 * delivered bytes, stream digests, and connection outcomes. Timing
 * differs wildly between the stacks; the *application-visible byte
 * streams* must not.
 */

#ifndef F4T_TESTS_FUZZ_RUNNER_HH
#define F4T_TESTS_FUZZ_RUNNER_HH

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iterator>
#include <string>

#include "apps/testbed.hh"
#include "net/stream_oracle.hh"
#include "sim/flight_recorder.hh"

#include "fuzz_apps.hh"
#include "fuzz_scenario.hh"

namespace f4t::fuzz
{

enum class WorldKind
{
    enginePair,
    engineLinux,
    linuxPair,
    /** The FtEngine pair with one partition per endpoint. */
    enginePairPartitioned,
};

inline const char *
toString(WorldKind kind)
{
    switch (kind) {
      case WorldKind::enginePair: return "enginePair";
      case WorldKind::engineLinux: return "engineLinux";
      case WorldKind::linuxPair: return "linuxPair";
      case WorldKind::enginePairPartitioned: return "enginePairPartitioned";
    }
    return "?";
}

constexpr WorldKind allWorlds[] = {
    WorldKind::enginePair, WorldKind::engineLinux, WorldKind::linuxPair,
    WorldKind::enginePairPartitioned};
constexpr std::size_t worldCount = std::size(allWorlds);

/** Last-N packet log fed from one link tap (read-only observation). */
class TraceRing
{
  public:
    void
    record(sim::Tick now, const char *dir, const net::Packet &pkt)
    {
        char buf[160];
        if (pkt.isTcp()) {
            const net::TcpHeader &tcp = pkt.tcp();
            std::snprintf(
                buf, sizeof(buf),
                "%12.3fus %s %5u->%-5u seq=%u ack=%u len=%zu%s%s%s%s",
                sim::ticksToSeconds(now) * 1e6, dir, tcp.srcPort,
                tcp.dstPort, tcp.seq, tcp.ack, pkt.payload.size(),
                tcp.hasFlag(net::TcpFlags::syn) ? " SYN" : "",
                tcp.hasFlag(net::TcpFlags::fin) ? " FIN" : "",
                tcp.hasFlag(net::TcpFlags::rst) ? " RST" : "",
                tcp.hasFlag(net::TcpFlags::ack) ? " ACK" : "");
        } else {
            std::snprintf(buf, sizeof(buf), "%12.3fus %s %s",
                          sim::ticksToSeconds(now) * 1e6, dir,
                          pkt.isArp() ? "ARP" : "non-TCP");
        }
        if (entries_.size() >= capacity)
            entries_.pop_front();
        entries_.emplace_back(buf);
    }

    std::string
    dump() const
    {
        std::string out = "last " + std::to_string(entries_.size()) +
                          " packets on the wire:";
        for (const std::string &e : entries_)
            out += "\n    " + e;
        return out;
    }

  private:
    static constexpr std::size_t capacity = 48;
    std::deque<std::string> entries_;
};

struct RunResult
{
    bool completed = false;    ///< every connection reached a terminal state
    bool oraclePassed = false; ///< byte-stream ledger clean
    std::uint64_t ledgerDigest = 0;
    std::uint64_t deliveredBytes = 0;
    std::uint64_t auditRuns = 0; ///< invariant-audit sweeps that ran
    std::string failureReport;   ///< nonempty iff the run failed

    bool ok() const { return completed && oraclePassed; }
};

/** Optional packet mutation hook (the corruption-detection test). */
using PacketMutator = std::function<void(net::Packet &)>;

namespace detail
{

/** FNV-1a over the little-endian bytes of each mixed value. */
struct Fnv
{
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            value = (value ^ (v & 0xff)) * 0x100000001b3ULL;
            v >>= 8;
        }
    }
};

/**
 * Run @p sc over @p link until every connection settles or the
 * deadline passes. @p kernel is a Simulation or a world with
 * run(limit)/now() over either placement.
 */
template <typename Kernel>
RunResult
drive(Kernel &kernel, net::Link &link, apps::SocketApi &client_api,
      apps::SocketApi &server_api, const Scenario &sc,
      const char *world_name, const PacketMutator &mutate)
{
    net::StreamOracle oracle;
    // One ring per direction, stamped with that direction's clock: on
    // a partitioned world each tap runs in its sender's partition.
    net::LinkDirection &ab = link.aToB();
    net::LinkDirection &ba = link.bToA();
    TraceRing trace_ab, trace_ba;
    ab.setTap([&](net::Packet &pkt) {
        if (mutate)
            mutate(pkt);
        trace_ab.record(ab.now(), "A->B", pkt);
    });
    ba.setTap(
        [&](net::Packet &pkt) { trace_ba.record(ba.now(), "B->A", pkt); });

    FuzzServer server(server_api, oracle);
    server.start();
    FuzzClient client(client_api, sc, oracle);
    client.start();

    // Drive in slices so the completion check runs between them. If
    // the queue drains early (now stops short of the slice target) no
    // further event can ever fire: stop rather than spin to deadline.
    const sim::Tick slice = sim::microsecondsToTicks(200);
    while (!client.done() && kernel.now() < sc.deadline) {
        sim::Tick target = kernel.now() + slice;
        kernel.run(target);
        if (kernel.now() < target)
            break;
    }

    RunResult result;
    result.completed = client.done();
    for (std::size_t i = 0; i < sc.conns.size(); ++i) {
        auto conn = static_cast<std::uint32_t>(i);
        oracle.expectFullyDelivered(upStream(conn));
        oracle.expectFullyDelivered(downStream(conn));
    }
    result.oraclePassed = oracle.passed();
    result.ledgerDigest = oracle.ledgerDigest();
    result.deliveredBytes = oracle.totalDeliveredBytes();
    result.auditRuns = ab.sim().auditRuns();
    if (&ba.sim() != &ab.sim())
        result.auditRuns += ba.sim().auditRuns();

    if (!result.ok()) {
        result.failureReport = std::string("fuzz run failed on world ") +
                               world_name + "\n  " + sc.describe();
        if (!result.completed) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "\n  deadline hit at %.3fms with connections "
                          "still open",
                          sim::ticksToSeconds(kernel.now()) * 1e3);
            result.failureReport += buf;
        }
        result.failureReport += "\n  " + oracle.report();
        result.failureReport += "\n  A->B " + trace_ab.dump();
        result.failureReport += "\n  B->A " + trace_ba.dump();
    }
    return result;
}

} // namespace detail

/** The FtEngine pair world in @p placement. */
inline RunResult
runEnginePair(const Scenario &sc, testbed::Placement placement,
              const PacketMutator &mutate = {})
{
    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 32;
    config.maxFlows = 1024;
    testbed::EnginePairWorld world(1, config, sc.faultsAtoB, sc.bandwidthBps,
                                   sc.faultsBtoA,
                                   sim::nanosecondsToTicks(500), placement);
    auto client_api = world.apiA(0);
    auto server_api = world.apiB(0);
    WorldKind kind = placement.partitioned ? WorldKind::enginePairPartitioned
                                           : WorldKind::enginePair;
    return detail::drive(world, *world.link, client_api, server_api, sc,
                         toString(kind), mutate);
}

inline RunResult
runScenario(WorldKind kind, const Scenario &sc,
            const PacketMutator &mutate = {})
{
    switch (kind) {
      case WorldKind::enginePair:
        return runEnginePair(sc, {}, mutate);
      case WorldKind::enginePairPartitioned:
        return runEnginePair(sc, {true}, mutate);
      case WorldKind::engineLinux: {
        core::EngineConfig config;
        config.numFpcs = 1;
        config.flowsPerFpc = 32;
        config.maxFlows = 256;
        testbed::EngineLinuxWorld world(1, 1, config, {}, sc.faultsAtoB,
                                        sc.bandwidthBps, sc.faultsBtoA);
        auto client_api = world.engineApi(0);
        auto server_api = world.linuxApi(0);
        return detail::drive(world.sim, *world.link, client_api,
                             server_api, sc, toString(kind), mutate);
      }
      case WorldKind::linuxPair: {
        testbed::LinuxPairWorld world(1, {}, sc.faultsAtoB,
                                      sc.bandwidthBps, sc.faultsBtoA);
        auto client_api = world.apiA(0);
        auto server_api = world.apiB(0);
        return detail::drive(world.sim, *world.link, client_api,
                             server_api, sc, toString(kind), mutate);
      }
    }
    return {};
}

/**
 * Write each world's flight-recorder snapshot to $F4T_DUMP_DIR (cwd by
 * default) so a divergence arrives with per-world event timelines side
 * by side. @return report lines naming the files and how to decode
 * them.
 */
inline std::string
dumpWorldRecorders(std::uint64_t seed, const sim::fr::Snapshot *snaps,
                   std::size_t count)
{
    const char *env = std::getenv("F4T_DUMP_DIR");
    std::string dir = env && env[0] ? env : ".";
    std::string out = "\n  flight recorder dumps (decode with "
                      "tools/f4t_blackbox):";
    for (std::size_t i = 0; i < count; ++i) {
        std::string world = toString(allWorlds[i]);
        std::string path = dir + "/f4t-fuzz-" + std::to_string(seed) +
                           "-" + world + ".f4tfr";
        std::string reason =
            "fuzz seed " + std::to_string(seed) + " world " + world;
        if (sim::fr::writeSnapshot(snaps[i], path, reason))
            out += "\n    " + path;
    }
    return out;
}

/**
 * Run one seed on all four worlds and cross-check. Returns an empty
 * string on agreement; otherwise a report naming the seed, the
 * scenario, and what diverged, plus per-world flight-recorder dumps
 * written to $F4T_DUMP_DIR.
 */
inline std::string
runDifferential(std::uint64_t seed)
{
    Scenario sc = Scenario::fromSeed(seed);

    // Each world runs against a freshly cleared flight recorder and its
    // ring is snapshotted before the next world overwrites it — a
    // failure at any point can dump every world it has.
    sim::fr::Snapshot snaps[worldCount];
    RunResult results[worldCount];
    std::size_t ran = 0;
    std::string report;
    for (std::size_t i = 0; i < worldCount; ++i) {
        sim::fr::clear();
        results[i] = runScenario(allWorlds[i], sc);
        snaps[i] = sim::fr::snapshot();
        ran = i + 1;
        if (!results[i].ok()) {
            report = results[i].failureReport;
            break;
        }
    }

    if (report.empty()) {
        for (std::size_t i = 1; i < worldCount; ++i) {
            if (results[i].ledgerDigest != results[0].ledgerDigest ||
                results[i].deliveredBytes != results[0].deliveredBytes) {
                char buf[256];
                std::snprintf(
                    buf, sizeof(buf),
                    "differential mismatch %s vs %s: digest "
                    "%016llx/%016llx delivered %llu/%llu\n  %s",
                    toString(allWorlds[0]), toString(allWorlds[i]),
                    static_cast<unsigned long long>(
                        results[0].ledgerDigest),
                    static_cast<unsigned long long>(
                        results[i].ledgerDigest),
                    static_cast<unsigned long long>(
                        results[0].deliveredBytes),
                    static_cast<unsigned long long>(
                        results[i].deliveredBytes),
                    sc.describe().c_str());
                report += buf;
            }
        }
    }
    if (!report.empty())
        report += dumpWorldRecorders(seed, snaps, ran);
    return report;
}

} // namespace f4t::fuzz

#endif // F4T_TESTS_FUZZ_RUNNER_HH
