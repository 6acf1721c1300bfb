/**
 * @file
 * Open-loop scenario benchmark: latency distributions and goodput for
 * workloads a closed loop cannot express.
 *
 * A closed loop issues a new request only after the previous
 * response, so offered load collapses exactly when the system
 * congests and tail latency never shows queueing. This harness runs
 * the src/load open-loop generators over the star testbed
 * (apps/testbed_star.hh): N client hosts and one server host behind a
 * net::Switch with a shared finite egress pool, so fan-in pressure
 * lands on a real queue that tail-drops.
 *
 * Scenarios (all on the serial kernel; the parallel equivalence for
 * this topology is pinned by tests/fuzz/test_parallel_differential):
 *  - open_loop_poisson: Poisson GET arrivals, bounded-Pareto sizes.
 *  - incast_8to1: 8 clients burst synchronized large SETs at the one
 *    server port; the shared egress pool oversubscribes and drops, and
 *    TCP loss recovery sets the p99/p999.
 *  - churn: connection open/GET/close lifecycles at >= 10k conn/s
 *    aggregate, lifecycle latency sampled open-to-closed.
 *  - kv_mixed: 90/10 GET/SET at log-normal sizes — the memcached-style
 *    mixed workload.
 *
 * Output: human-readable summary plus a JSON report (default
 * BENCH_scenarios.json) with schema {"bench": "scenarios",
 * "schema": 5, meta, scenarios[]}. Latency percentiles are emitted as
 * p50_us/p99_us/p999_us; requests_per_sec, conns_per_sec and
 * goodput_gbps are rates over the measured window. Schema 5 adds the
 * profiler meta fields (profile_enabled/profiled) and, under
 * --profile, a per-scenario "profile" member with the wall-clock cost
 * attribution (obs::writeProfileJson).
 *
 * "fingerprint" hashes simulated quantities only (final tick, request
 * and byte counters, switch forward/drop totals, cable counters): it
 * must be identical run-to-run for a scenario — the harness re-runs
 * one scenario and fails on any drift — and may only change when
 * modeled behavior legitimately changes.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv.hh"
#include "apps/testbed_star.hh"
#include "bench_util.hh"
#include "load/open_loop.hh"
#include "load/syn_flood.hh"
#include "obs/profiler.hh"
#include "sim/profile_scope.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

struct ScenarioResult
{
    std::string name;
    double wallSeconds = 0;
    double windowSeconds = 0;
    std::uint64_t requestsIssued = 0;
    std::uint64_t requestsCompleted = 0;
    std::uint64_t goodputBytes = 0;
    double p50Us = 0;
    double p99Us = 0;
    double p999Us = 0;
    std::uint64_t switchDrops = 0;
    /** Churn only: completed connection lifecycles per second. */
    double connsPerSec = 0;
    bool hasConnRate = false;
    std::uint64_t fingerprint = 0;
    /** Set when --profile was active during the measured window. */
    bool profiled = false;
    obs::ProfileReport profile;

    double
    requestsPerSec() const
    {
        return windowSeconds > 0 ? requestsCompleted / windowSeconds : 0;
    }

    double
    goodputGbps() const
    {
        return windowSeconds > 0
                   ? goodputBytes * 8.0 / windowSeconds / 1e9
                   : 0;
    }
};

/** FNV-1a over simulated quantities: stable across harness rewrites. */
struct Fingerprint
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (value >> (i * 8)) & 0xff;
            state *= 1099511628211ULL;
        }
    }
};

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Under --profile, attribute the measured window's profiler delta. */
void
attachProfile(ScenarioResult &result, const sim::prof::Snapshot &before)
{
    if (!bench::Obs::profiling())
        return;
    result.profiled = true;
    result.profile = obs::makeProfileReport(sim::prof::since(before),
                                            result.wallSeconds);
}

/** Engine sizing shared by every scenario host. */
core::EngineConfig
scenarioEngine(std::size_t tcp_buffer_bytes)
{
    core::EngineConfig config;
    config.numFpcs = 4;
    config.flowsPerFpc = 64;
    config.maxFlows = 4096;
    config.tcpBufferBytes = tcp_buffer_bytes;
    return config;
}

/** One open-loop KV scenario over the star testbed. */
struct OpenLoopScenario
{
    std::string name;
    std::size_t clients = 8;
    std::size_t connections = 4;
    std::size_t tcpBufferBytes = 32 * 1024;
    std::size_t sharedEgressBytes = 256 * 1024;
    load::ArrivalSpec arrivals;
    load::SizeSpec sizes;
    double readFraction = 1.0;
    sim::Tick warmup = 0;
    sim::Tick window = 0;
    /** Override the engine flow-table size; 0 keeps the default. */
    std::size_t maxFlows = 0;
    /** >0 adds a SYN-flood injector at this rate on an extra switch
     *  port: adversarial half-open churn against the server's passive
     *  open path while the legit clients are measured. */
    double synFloodPerSec = 0;
};

ScenarioResult
runOpenLoop(const OpenLoopScenario &sc)
{
    testbed::StarConfig star;
    star.clients = sc.clients;
    star.engine = scenarioEngine(sc.tcpBufferBytes);
    if (sc.maxFlows > 0)
        star.engine.maxFlows = sc.maxFlows;
    star.fabric.sharedEgressBytes = sc.sharedEgressBytes;
    if (sc.synFloodPerSec > 0)
        star.extraPorts = 1;
    testbed::StarWorld world(star);

    std::unique_ptr<load::SynFloodApp> flood;
    if (sc.synFloodPerSec > 0) {
        load::SynFloodConfig flood_config;
        flood_config.target = testbed::starServerIp();
        flood_config.targetMac = testbed::starServerMac();
        flood_config.synsPerSec = sc.synFloodPerSec;
        flood_config.startAt = sc.warmup / 2;
        flood = std::make_unique<load::SynFloodApp>(
            world.sim, "synflood", world.fabric->port(sc.clients + 1),
            flood_config);
        flood->start();
    }

    sim::Histogram latency(world.sim.stats(), "bench.latency_us",
                           "open-loop request latency (us)");

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerConfig server_config;
    apps::KvServerApp server(server_api, server_config);
    server.start();

    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis;
    std::vector<std::unique_ptr<load::OpenLoopClientApp>> clients;
    for (std::size_t i = 0; i < sc.clients; ++i) {
        apis.push_back(world.makeClientApi(i));
        load::OpenLoopConfig config;
        config.peer = testbed::starServerIp();
        config.connections = sc.connections;
        config.streamBase = static_cast<std::uint32_t>(i) * 64;
        config.clientId = static_cast<std::uint32_t>(i);
        config.seed = 0xF47'0001;
        config.arrivals = sc.arrivals;
        config.valueSizes = sc.sizes;
        config.readFraction = sc.readFraction;
        // Connections come up in the first few microseconds; steady
        // arrivals begin well inside warmup so the window measures
        // steady state (incast uses warmup-aligned rounds instead).
        config.startAt = sc.warmup / 2;
        config.latencyUs = &latency;
        clients.push_back(std::make_unique<load::OpenLoopClientApp>(
            *apis.back(), config));
        clients.back()->start();
    }

    world.sim.runFor(sc.warmup);

    std::uint64_t issued0 = 0, completed0 = 0, goodput0 =
        server.valueBytesIn();
    for (const auto &c : clients) {
        issued0 += c->issued();
        completed0 += c->completed();
        goodput0 += c->valueBytesReceived();
    }
    std::uint64_t drops0 = world.fabric->totalDropped();
    latency.reset();

    sim::prof::Snapshot prof_before = sim::prof::capture();
    auto wall0 = std::chrono::steady_clock::now();
    world.sim.runFor(sc.window);

    ScenarioResult result;
    result.name = sc.name;
    result.wallSeconds = wallSince(wall0);
    attachProfile(result, prof_before);
    result.windowSeconds =
        static_cast<double>(sc.window) / sim::ticksPerSecond;
    std::uint64_t goodput1 = server.valueBytesIn();
    for (const auto &c : clients) {
        result.requestsIssued += c->issued();
        result.requestsCompleted += c->completed();
        goodput1 += c->valueBytesReceived();
    }
    result.requestsIssued -= issued0;
    result.requestsCompleted -= completed0;
    result.goodputBytes = goodput1 - goodput0;
    result.p50Us = latency.percentile(50);
    result.p99Us = latency.percentile(99);
    result.p999Us = latency.percentile(99.9);
    result.switchDrops = world.fabric->totalDropped() - drops0;

    Fingerprint fp;
    fp.mix(world.sim.now());
    for (const auto &c : clients) {
        fp.mix(c->issued());
        fp.mix(c->dispatched());
        fp.mix(c->completed());
        fp.mix(c->valueBytesReceived());
        fp.mix(c->valueBytesSent());
    }
    fp.mix(server.gets());
    fp.mix(server.sets());
    fp.mix(server.valueBytesIn());
    fp.mix(server.valueBytesOut());
    fp.mix(world.fabric->totalForwarded());
    fp.mix(world.fabric->totalDropped());
    fp.mix(world.serverLink->aToB().packetsSent());
    fp.mix(world.serverLink->aToB().bytesSent());
    fp.mix(world.serverLink->bToA().packetsSent());
    fp.mix(world.serverLink->bToA().bytesSent());
    if (flood) {
        fp.mix(flood->sent());
        fp.mix(world.serverEngine->flowsActive());
        fp.mix(world.fabric->routeMisses());
        // routeMisses ~ SYN-ACK (re)transmissions toward spoofed
        // sources; flowsActive ~ half-open flows pinned in the victim.
        std::printf("%s: %llu SYNs injected, %llu half-open flows "
                    "pinned, %llu route-missed replies\n"
                    "  drill into one flood flow from a crash dump: "
                    "f4t_blackbox --flow 0x%08x <dump.f4tfr>\n",
                    sc.name.c_str(),
                    static_cast<unsigned long long>(flood->sent()),
                    static_cast<unsigned long long>(
                        world.serverEngine->flowsActive()),
                    static_cast<unsigned long long>(
                        world.fabric->routeMisses()),
                    flood->lastFlowHash());
    }
    result.fingerprint = fp.state;
    return result;
}

ScenarioResult
runChurn(const std::string &name, std::size_t num_clients,
         double opens_per_sec_per_client, sim::Tick warmup,
         sim::Tick window)
{
    testbed::StarConfig star;
    star.clients = num_clients;
    star.engine = scenarioEngine(16 * 1024);
    testbed::StarWorld world(star);

    sim::Histogram lifecycle(world.sim.stats(), "bench.lifecycle_us",
                             "connection open-to-closed lifecycle (us)");

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerConfig server_config;
    apps::KvServerApp server(server_api, server_config);
    server.start();

    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis;
    std::vector<std::unique_ptr<load::ChurnClientApp>> clients;
    for (std::size_t i = 0; i < num_clients; ++i) {
        apis.push_back(world.makeClientApi(i));
        load::ChurnConfig config;
        config.peer = testbed::starServerIp();
        config.clientId = static_cast<std::uint32_t>(i);
        config.seed = 0xF47'0002;
        config.arrivals =
            load::ArrivalSpec::poisson(opens_per_sec_per_client);
        config.requestBytes = 512;
        config.startAt = warmup / 2;
        config.lifecycleUs = &lifecycle;
        clients.push_back(
            std::make_unique<load::ChurnClientApp>(*apis.back(), config));
        clients.back()->start();
    }

    world.sim.runFor(warmup);

    std::uint64_t opened0 = 0, completed0 = 0, bytes0 = 0;
    for (const auto &c : clients) {
        opened0 += c->opened();
        completed0 += c->completed();
        bytes0 += c->valueBytesReceived();
    }
    std::uint64_t drops0 = world.fabric->totalDropped();
    lifecycle.reset();

    sim::prof::Snapshot prof_before = sim::prof::capture();
    auto wall0 = std::chrono::steady_clock::now();
    world.sim.runFor(window);

    ScenarioResult result;
    result.name = name;
    result.wallSeconds = wallSince(wall0);
    attachProfile(result, prof_before);
    result.windowSeconds =
        static_cast<double>(window) / sim::ticksPerSecond;
    std::uint64_t bytes1 = 0;
    for (const auto &c : clients) {
        result.requestsIssued += c->opened();
        result.requestsCompleted += c->completed();
        bytes1 += c->valueBytesReceived();
    }
    result.requestsIssued -= opened0;
    result.requestsCompleted -= completed0;
    result.goodputBytes = bytes1 - bytes0;
    result.p50Us = lifecycle.percentile(50);
    result.p99Us = lifecycle.percentile(99);
    result.p999Us = lifecycle.percentile(99.9);
    result.switchDrops = world.fabric->totalDropped() - drops0;
    result.connsPerSec = result.windowSeconds > 0
                             ? result.requestsCompleted /
                                   result.windowSeconds
                             : 0;
    result.hasConnRate = true;

    Fingerprint fp;
    fp.mix(world.sim.now());
    for (const auto &c : clients) {
        fp.mix(c->opened());
        fp.mix(c->completed());
        fp.mix(c->failed());
        fp.mix(c->valueBytesReceived());
    }
    fp.mix(server.gets());
    fp.mix(server.valueBytesOut());
    fp.mix(world.fabric->totalForwarded());
    fp.mix(world.fabric->totalDropped());
    fp.mix(world.serverLink->aToB().packetsSent());
    fp.mix(world.serverLink->bToA().packetsSent());
    result.fingerprint = fp.state;
    return result;
}

void
writeJson(const std::string &path,
          const std::vector<ScenarioResult> &results)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "perf_scenarios: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(out, "{\n  \"bench\": \"scenarios\",\n  \"schema\": 5,\n");
    bench::writeRunMeta(out, 2);
    std::fprintf(out, ",\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        std::fprintf(out,
                     "    {\n"
                     "      \"name\": \"%s\",\n"
                     "      \"wall_seconds\": %.6f,\n"
                     "      \"requests\": %llu,\n"
                     "      \"requests_per_sec\": %.1f,\n"
                     "      \"goodput_gbps\": %.4f,\n"
                     "      \"p50_us\": %.3f,\n"
                     "      \"p99_us\": %.3f,\n"
                     "      \"p999_us\": %.3f,\n"
                     "      \"switch_drops\": %llu,\n",
                     r.name.c_str(), r.wallSeconds,
                     static_cast<unsigned long long>(r.requestsCompleted),
                     r.requestsPerSec(), r.goodputGbps(), r.p50Us,
                     r.p99Us, r.p999Us,
                     static_cast<unsigned long long>(r.switchDrops));
        if (r.hasConnRate)
            std::fprintf(out, "      \"conns_per_sec\": %.1f,\n",
                         r.connsPerSec);
        if (r.profiled) {
            obs::writeProfileJson(out, r.profile, 6);
            std::fprintf(out, ",\n");
        }
        std::fprintf(out,
                     "      \"fingerprint\": \"%016llx\"\n"
                     "    }%s\n",
                     static_cast<unsigned long long>(r.fingerprint),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
}

} // namespace
} // namespace f4t

int
main(int argc, char **argv)
{
    using namespace f4t;
    sim::setVerbose(false);
    bench::Obs::install(argc, argv); // strips capture flags from argv

    // --smoke: same scenarios at reduced rates and windows so a ctest
    // entry (label: scenarios) keeps the harness building and running
    // without spending real time. The full configuration is the one
    // EXPERIMENTS.md reports.
    bool smoke = false;
    std::string out_path = "BENCH_scenarios.json";
    bench::CliArgs("perf_scenarios", "[--smoke] [--out FILE]")
        .flag("--smoke", smoke)
        .text("--out", out_path)
        .parse(argc, argv);

    bench::banner("perf_scenarios",
                  "open-loop tail latency and goodput scenarios");

    auto us = [](std::uint64_t n) { return sim::microsecondsToTicks(n); };

    // Poisson GETs at 8 x 150k req/s (smoke: 8 x 40k), bounded-Pareto
    // response sizes — the baseline open-loop latency scenario.
    OpenLoopScenario poisson;
    poisson.name = "open_loop_poisson";
    poisson.arrivals =
        load::ArrivalSpec::poisson(smoke ? 40'000.0 : 150'000.0);
    poisson.sizes = load::SizeSpec::boundedPareto(1.3, 256, 65536);
    poisson.warmup = us(smoke ? 100 : 300);
    poisson.window = us(smoke ? 150 : 1500);

    // Synchronized 24 KiB SET rounds from all 8 clients every 100 us
    // into a 96 KiB shared egress pool: ~8x oversubscription at the
    // server port on every round, so the pool tail-drops and the tail
    // is set by TCP loss recovery.
    OpenLoopScenario incast;
    incast.name = "incast_8to1";
    incast.connections = 1;
    incast.tcpBufferBytes = 64 * 1024;
    incast.sharedEgressBytes = 96 * 1024;
    incast.arrivals = load::ArrivalSpec::fixedEvery(us(100));
    incast.sizes = load::SizeSpec::fixedSize(24 * 1024);
    incast.readFraction = 0.0;
    incast.warmup = us(200);
    // The RTO floor is 5 ms: a drop-stalled round recovers ~5 ms
    // later, so the window must be several RTOs wide for the p999 to
    // capture the recovery tail rather than just the survivors.
    incast.window = us(smoke ? 400 : 12000);

    // Poisson GETs under a 1M SYN/s flood (smoke: 200k) against a
    // 512-flow server table: the flood pins half-open flows until the
    // table exhausts mid-window, so legit tail latency and goodput are
    // measured through adversarial control-path overload — passive
    // opens burning FPC cycles, scheduler churn from half-open
    // installs, SYN-ACK retransmissions into route-miss drops.
    OpenLoopScenario synflood;
    synflood.name = "syn_flood";
    synflood.clients = 4;
    synflood.maxFlows = 512;
    synflood.arrivals =
        load::ArrivalSpec::poisson(smoke ? 30'000.0 : 100'000.0);
    synflood.sizes = load::SizeSpec::boundedPareto(1.3, 256, 16384);
    synflood.synFloodPerSec = smoke ? 200'000.0 : 1'000'000.0;
    synflood.warmup = us(smoke ? 100 : 300);
    synflood.window = us(smoke ? 150 : 1500);

    // 90/10 GET/SET at log-normal value sizes, 8 x 100k req/s
    // (smoke: 8 x 30k) — the memcached-style mixed workload.
    OpenLoopScenario mixed;
    mixed.name = "kv_mixed";
    mixed.arrivals =
        load::ArrivalSpec::poisson(smoke ? 30'000.0 : 100'000.0);
    mixed.sizes = load::SizeSpec::logNormalSize(1024.0, 0.8, 64, 32768);
    mixed.readFraction = 0.9;
    mixed.warmup = us(smoke ? 100 : 300);
    mixed.window = us(smoke ? 150 : 1200);

    std::vector<ScenarioResult> results;
    results.push_back(runOpenLoop(poisson));
    results.push_back(runOpenLoop(incast));
    // 8 x 12.5k conn/s = 100k conn/s offered (smoke: 8 x 5k = 40k),
    // both past the 10k conn/s scenario floor.
    results.push_back(runChurn("churn", 8, smoke ? 5'000.0 : 12'500.0,
                               us(200), us(smoke ? 400 : 2500)));
    results.push_back(runOpenLoop(mixed));
    results.push_back(runOpenLoop(synflood));

    bench::Table table({"scenario", "reqs", "req/s", "goodput Gb/s",
                        "p50 us", "p99 us", "p999 us", "drops",
                        "fingerprint"});
    for (const ScenarioResult &r : results) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(r.fingerprint));
        table.addRow({r.name, std::to_string(r.requestsCompleted),
                      bench::fmt("%.0f", r.requestsPerSec()),
                      bench::fmt("%.3f", r.goodputGbps()),
                      bench::fmt("%.2f", r.p50Us),
                      bench::fmt("%.2f", r.p99Us),
                      bench::fmt("%.2f", r.p999Us),
                      std::to_string(r.switchDrops), fp});
    }
    table.print();

    if (bench::Obs::profiling()) {
        std::printf("\nper-scenario wall-clock cost attribution:\n");
        for (const ScenarioResult &r : results) {
            std::printf("%s:\n", r.name.c_str());
            obs::printProfileTable(stdout, r.profile);
        }
    }

    // Determinism cross-check: rebuild and re-run the incast scenario
    // from scratch; the fingerprint hashes simulated quantities only,
    // so any drift means hidden host state leaked into the model.
    ScenarioResult rerun = runOpenLoop(incast);
    if (rerun.fingerprint != results[1].fingerprint) {
        std::fprintf(stderr,
                     "perf_scenarios: FINGERPRINT MISMATCH: incast_8to1 "
                     "re-run %016llx vs %016llx — scenario is not "
                     "deterministic\n",
                     static_cast<unsigned long long>(rerun.fingerprint),
                     static_cast<unsigned long long>(
                         results[1].fingerprint));
        return 1;
    }

    writeJson(out_path, results);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
