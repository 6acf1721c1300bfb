/**
 * @file
 * Shared setup for the Nginx experiments (Figs. 1, 10, 11, 12):
 * an Nginx-like HTTP server with 256 B responses on the system under
 * test, loaded by a wrk-like closed-loop generator running on a
 * separate (uncharged) client machine.
 */

#ifndef F4T_BENCH_NGINX_COMMON_HH
#define F4T_BENCH_NGINX_COMMON_HH

#include <memory>
#include <vector>

#include "apps/http.hh"
#include "apps/testbed.hh"
#include "host/cost_model.hh"
#include "obs/spans.hh"

namespace f4t::bench
{

struct NginxResult
{
    double requestsPerSecond = 0;
    double latencyP50Us = 0;
    double latencyP99Us = 0;
    /** Per-category CPU cycles consumed on the server per request. */
    double appCycles = 0;
    double tcpCycles = 0;
    double kernelCycles = 0;
    double libraryCycles = 0;
    double filesystemCycles = 0;
    /** Server CPU utilization over the window, [0, 1]. */
    double utilization = 0;
};

inline apps::HttpServerConfig
nginxServerConfig(bool on_linux)
{
    apps::HttpServerConfig config;
    config.responseBytes = 256;
    if (on_linux) {
        config.stackCyclesPerRequest = host::NginxCosts::linuxTcp;
        config.kernelCyclesPerRequest = host::NginxCosts::linuxKernelOther;
    }
    return config;
}

/** Distribute @p flows wrk connections over @p client_cores apps. */
template <typename MakeApi>
std::vector<std::unique_ptr<apps::HttpLoadGenApp>>
makeLoadGens(std::size_t flows, std::size_t client_cores,
             sim::Histogram *latency, MakeApi make_api,
             std::vector<std::unique_ptr<apps::SocketApi>> &keep_apis)
{
    std::vector<std::unique_ptr<apps::HttpLoadGenApp>> gens;
    std::size_t threads = flows < client_cores ? flows : client_cores;
    for (std::size_t i = 0; i < threads; ++i) {
        std::size_t share = flows / threads +
                            (i < flows % threads ? 1 : 0);
        if (share == 0)
            continue;
        keep_apis.push_back(make_api(i));
        apps::HttpLoadGenConfig config;
        config.peer = testbed::ipA(); // server is host A by convention
        config.port = 80;
        config.connections = share;
        config.responseBytes = 256;
        gens.push_back(std::make_unique<apps::HttpLoadGenApp>(
            *keep_apis.back(), latency, config));
        gens.back()->start();
    }
    return gens;
}

/**
 * Nginx on the Linux baseline (server = host A), wrk on an uncharged
 * client (host B).
 */
inline NginxResult
runNginxLinux(std::size_t server_cores, std::size_t flows,
              sim::Tick warmup, sim::Tick window, bool jitter = true)
{
    baseline::LinuxHostConfig server_config;
    server_config.latencyJitter = jitter;
    // The per-request kernel budgets are charged explicitly by the
    // HTTP server app (calibrated Fig. 1a split); the generic stack
    // cost model stays off to avoid double counting.
    server_config.chargeCosts = false;
    testbed::LinuxPairWorld world(std::max(server_cores, std::size_t{16}),
                                  server_config);
    // Client side (host B): free CPU, no jitter — only the server's
    // behaviour is under study, as with the paper's wrk machine.
    world.hostB->setLatencyJitter(false);

    std::vector<std::unique_ptr<apps::LinuxSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::HttpServerApp>> servers;
    for (std::size_t i = 0; i < server_cores; ++i) {
        server_apis.push_back(std::make_unique<apps::LinuxSocketApi>(
            world.sim, *world.hostA, i));
        servers.push_back(std::make_unique<apps::HttpServerApp>(
            *server_apis.back(), nginxServerConfig(true)));
        servers.back()->start();
    }

    // Let the listen() reach the stacks before the first SYN arrives.
    world.sim.runFor(sim::microsecondsToTicks(20));

    sim::Histogram latency(world.sim.stats(), "bench.nginxLatency",
                           "HTTP request latency (us)");
    std::vector<std::unique_ptr<apps::SocketApi>> client_apis;
    auto gens = makeLoadGens(
        flows, 8, &latency,
        [&](std::size_t i) -> std::unique_ptr<apps::SocketApi> {
            return std::make_unique<apps::LinuxSocketApi>(
                world.sim, *world.hostB, i);
        },
        client_apis);

    world.sim.runFor(warmup);
    std::uint64_t before = 0;
    for (auto &gen : gens)
        before += gen->responses();
    double cycles_before[5] = {};
    for (std::size_t i = 0; i < server_cores; ++i) {
        for (int c = 0; c < 5; ++c) {
            cycles_before[c] += world.hostA->core(i).categoryCycles(
                static_cast<tcp::CostCategory>(c));
        }
    }
    latency.reset();

    world.sim.runFor(window);

    std::uint64_t responses = 0;
    for (auto &gen : gens)
        responses += gen->responses();
    responses -= before;

    NginxResult result;
    result.requestsPerSecond = responses / sim::ticksToSeconds(window);
    result.latencyP50Us = latency.percentile(50);
    result.latencyP99Us = latency.percentile(99);
    double totals[5] = {};
    for (std::size_t i = 0; i < server_cores; ++i) {
        for (int c = 0; c < 5; ++c) {
            totals[c] += world.hostA->core(i).categoryCycles(
                             static_cast<tcp::CostCategory>(c)) -
                         cycles_before[c];
        }
    }
    double n = responses ? static_cast<double>(responses) : 1.0;
    result.appCycles = totals[0] / n;
    result.tcpCycles = totals[1] / n;
    result.kernelCycles = totals[2] / n;
    result.libraryCycles = totals[3] / n;
    result.filesystemCycles = totals[4] / n;
    double window_cycles = server_cores * host::hostFrequencyHz *
                           sim::ticksToSeconds(window);
    result.utilization =
        (totals[0] + totals[1] + totals[2] + totals[3] + totals[4]) /
        window_cycles;
    return result;
}

/** Nginx on F4T (server = engine host A), wrk on a Linux client. */
inline NginxResult
runNginxF4t(std::size_t server_cores, std::size_t flows, sim::Tick warmup,
            sim::Tick window)
{
    core::EngineConfig engine_config;
    engine_config.numFpcs = 8;
    engine_config.flowsPerFpc = 128;
    engine_config.maxFlows = 8192;
    baseline::LinuxHostConfig client_config;
    client_config.chargeCosts = false; // client machine is free
    client_config.latencyJitter = false;
    testbed::EngineLinuxWorld world(server_cores, 8, engine_config,
                                    client_config);

    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::HttpServerApp>> servers;
    for (std::size_t i = 0; i < server_cores; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtime, i, world.cpu->core(i)));
        servers.push_back(std::make_unique<apps::HttpServerApp>(
            *server_apis.back(), nginxServerConfig(false)));
        servers.back()->start();
    }

    // Let the listen command cross PCIe before the first SYN arrives.
    world.sim.runFor(sim::microsecondsToTicks(20));

    sim::Histogram latency(world.sim.stats(), "bench.nginxLatency",
                           "HTTP request latency (us)");
    std::vector<std::unique_ptr<apps::SocketApi>> client_apis;
    auto gens = makeLoadGens(
        flows, 8, &latency,
        [&](std::size_t i) -> std::unique_ptr<apps::SocketApi> {
            return std::make_unique<apps::LinuxSocketApi>(
                world.sim, *world.linux, i);
        },
        client_apis);

    world.sim.runFor(warmup);
    std::uint64_t before = 0;
    for (auto &gen : gens)
        before += gen->responses();
    double cycles_before[5] = {};
    for (std::size_t i = 0; i < server_cores; ++i) {
        for (int c = 0; c < 5; ++c) {
            cycles_before[c] += world.cpu->core(i).categoryCycles(
                static_cast<tcp::CostCategory>(c));
        }
    }
    latency.reset();

    world.sim.runFor(window);

    std::uint64_t responses = 0;
    for (auto &gen : gens)
        responses += gen->responses();
    responses -= before;

    NginxResult result;
    result.requestsPerSecond = responses / sim::ticksToSeconds(window);
    result.latencyP50Us = latency.percentile(50);
    result.latencyP99Us = latency.percentile(99);
    double totals[5] = {};
    for (std::size_t i = 0; i < server_cores; ++i) {
        for (int c = 0; c < 5; ++c) {
            totals[c] += world.cpu->core(i).categoryCycles(
                             static_cast<tcp::CostCategory>(c)) -
                         cycles_before[c];
        }
    }
    double n = responses ? static_cast<double>(responses) : 1.0;
    result.appCycles = totals[0] / n;
    result.tcpCycles = totals[1] / n;
    result.kernelCycles = totals[2] / n;
    result.libraryCycles = totals[3] / n;
    result.filesystemCycles = totals[4] / n;
    double window_cycles = server_cores * host::hostFrequencyHz *
                           sim::ticksToSeconds(window);
    result.utilization =
        (totals[0] + totals[1] + totals[2] + totals[3] + totals[4]) /
        window_cycles;
    return result;
}

/**
 * One Nginx run on an all-F4T engine pair (server on engine A, load
 * generators on engine B) with every probe record captured, so every
 * span of every request closes on both hosts. Used by the --spans
 * modes of fig11/fig12: the returned struct keeps the world alive and
 * holds the span trees built from the capture, so callers can render
 * per-stage breakdowns, critical paths, and the per-stage latency JSON
 * after the run. Spans are drawn into the simulation's timeline when
 * one is attached.
 *
 * Members are declared so destruction unwinds apps before the
 * simulation.
 */
struct TracedNginxRun
{
    std::unique_ptr<testbed::EnginePairWorld> world;
    std::unique_ptr<obs::Spans> spans;
    std::unique_ptr<sim::Histogram> latency;
    std::vector<std::unique_ptr<apps::F4tSocketApi>> serverApis;
    std::vector<std::unique_ptr<apps::HttpServerApp>> servers;
    std::vector<std::unique_ptr<apps::SocketApi>> clientApis;
    std::vector<std::unique_ptr<apps::HttpLoadGenApp>> gens;
    NginxResult result;
};

inline TracedNginxRun
runNginxF4tPairTraced(std::size_t flows, sim::Tick warmup,
                      sim::Tick window)
{
    TracedNginxRun run;
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 8192;
    run.world = std::make_unique<testbed::EnginePairWorld>(8, config);
    testbed::EnginePairWorld &world = *run.world;
    std::vector<sim::fr::Record> capture;
    world.sim.setCapture(&capture);

    run.serverApis.push_back(std::make_unique<apps::F4tSocketApi>(
        world.sim, *world.runtimeA, 0, world.cpuA->core(0)));
    run.servers.push_back(std::make_unique<apps::HttpServerApp>(
        *run.serverApis.back(), nginxServerConfig(false)));
    run.servers.back()->start();

    // Let the listen command cross PCIe before the first SYN arrives.
    world.sim.runFor(sim::microsecondsToTicks(20));

    run.latency = std::make_unique<sim::Histogram>(
        world.sim.stats(), "bench.nginxLatency",
        "HTTP request latency (us)");
    run.gens = makeLoadGens(
        flows, 8, run.latency.get(),
        [&](std::size_t i) -> std::unique_ptr<apps::SocketApi> {
            return std::make_unique<apps::F4tSocketApi>(
                world.sim, *world.runtimeB, i, world.cpuB->core(i));
        },
        run.clientApis);

    world.sim.runFor(warmup);
    // Steady state only: spans and requests that finish from here on
    // are sampled. Requests in flight keep their trees.
    run.latency->reset();
    std::size_t window_start = capture.size();
    std::uint64_t before = 0;
    for (auto &gen : run.gens)
        before += gen->responses();

    world.sim.runFor(window);
    world.sim.setCapture(nullptr);
    run.spans = std::make_unique<obs::Spans>(capture, world.spanHosts(),
                                             window_start);
    if (sim::trace::TraceEventSink *timeline = world.sim.timeline())
        run.spans->draw(*timeline);

    std::uint64_t responses = 0;
    for (auto &gen : run.gens)
        responses += gen->responses();
    responses -= before;
    run.result.requestsPerSecond =
        responses / sim::ticksToSeconds(window);
    run.result.latencyP50Us = run.latency->percentile(50);
    run.result.latencyP99Us = run.latency->percentile(99);
    return run;
}

} // namespace f4t::bench

#endif // F4T_BENCH_NGINX_COMMON_HH
