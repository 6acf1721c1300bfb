/**
 * @file
 * Web-serving scenario (the paper's headline application): an
 * Nginx-like HTTP server runs unmodified on both stacks, loaded by a
 * wrk-like generator — the example prints the request rates and the
 * server-side CPU picture side by side.
 *
 * The key property demonstrated: the application code is written once
 * against SocketApi; swapping `LinuxSocketApi` for `F4tSocketApi` is
 * the only change, exactly like relinking a real binary against the
 * LD_PRELOAD library (Section 4.1.1).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/http.hh"
#include "apps/testbed.hh"
#include "apps/workloads.hh"
#include "bench_util.hh"
#include "host/cost_model.hh"
#include "obs/stage_report.hh"

using namespace f4t;

namespace
{

struct Outcome
{
    double mrps;
    double app_share;
    double tcp_share;
};

Outcome
serveOnLinux()
{
    baseline::LinuxHostConfig server_config;
    server_config.chargeCosts = false;
    server_config.latencyJitter = false;
    testbed::LinuxPairWorld world(8, server_config);

    apps::LinuxSocketApi server_api(world.sim, *world.hostA, 0);
    apps::HttpServerConfig server_config2;
    server_config2.stackCyclesPerRequest = host::NginxCosts::linuxTcp;
    server_config2.kernelCyclesPerRequest =
        host::NginxCosts::linuxKernelOther;
    apps::HttpServerApp server(server_api, server_config2);
    server.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    apps::LinuxSocketApi client_api(world.sim, *world.hostB, 1);
    apps::HttpLoadGenConfig gen_config;
    gen_config.peer = testbed::ipA();
    gen_config.connections = 64;
    apps::HttpLoadGenApp generator(client_api, nullptr, gen_config);
    generator.start();

    sim::Tick window = sim::millisecondsToTicks(4);
    world.sim.runFor(sim::millisecondsToTicks(1));
    std::uint64_t before = generator.responses();
    world.sim.runFor(window);

    host::CpuCore &core = world.hostA->core(0);
    double busy = core.totalBusyCycles();
    return Outcome{
        (generator.responses() - before) / sim::ticksToSeconds(window) /
            1e6,
        core.categoryCycles(tcp::CostCategory::application) / busy,
        core.categoryCycles(tcp::CostCategory::tcpStack) / busy};
}

Outcome
serveOnF4t()
{
    core::EngineConfig engine_config;
    baseline::LinuxHostConfig client_config;
    client_config.chargeCosts = false;
    client_config.latencyJitter = false;
    testbed::EngineLinuxWorld world(1, 8, engine_config, client_config);

    apps::F4tSocketApi server_api(world.sim, *world.runtime, 0,
                                  world.cpu->core(0));
    apps::HttpServerConfig server_config; // no kernel budgets on F4T
    apps::HttpServerApp server(server_api, server_config);
    server.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    apps::LinuxSocketApi client_api(world.sim, *world.linux, 1);
    apps::HttpLoadGenConfig gen_config;
    gen_config.peer = testbed::ipA();
    gen_config.connections = 64;
    apps::HttpLoadGenApp generator(client_api, nullptr, gen_config);
    generator.start();

    sim::Tick window = sim::millisecondsToTicks(4);
    world.sim.runFor(sim::millisecondsToTicks(1));
    std::uint64_t before = generator.responses();
    world.sim.runFor(window);

    host::CpuCore &core = world.cpu->core(0);
    double busy = core.totalBusyCycles();
    return Outcome{
        (generator.responses() - before) / sim::ticksToSeconds(window) /
            1e6,
        core.categoryCycles(tcp::CostCategory::application) / busy,
        core.categoryCycles(tcp::CostCategory::tcpStack) / busy};
}

/**
 * --lossy: a single bulk flow over a 10 Gbps / 250 us link with a
 * deterministic drop schedule (the same instants as fig14_cwnd), long
 * enough for the congestion window to trace the classic sawtooth.
 * Pair it with the capture flags, e.g.:
 *
 *   http_server --lossy --pcap=http.pcap --timeline=http.json \
 *               --stat-sample=http_stats.csv@1000
 *
 * and the cwnd_segments CSV column reproduces the Fig. 14 curve.
 */
int
runLossyBulk()
{
    net::FaultModel faults;
    for (int ms : {15, 40, 65, 90, 115, 135})
        faults.dropAtTicks.push_back(sim::millisecondsToTicks(ms));
    faults.seed = 20230617;

    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 16;
    config.maxFlows = 64;
    // Long link: 250 us propagation so cwnd dynamics are visible.
    testbed::EnginePairWorld world(1, config, faults, 10e9, {},
                                   sim::microsecondsToTicks(250));

    // Capture every probe record: each deliberate drop forces a
    // retransmission, so the request spans rebuilt from the capture
    // show wire re-entries, and the per-stage table below shows the
    // tail they cause.
    std::vector<sim::fr::Record> capture;
    world.sim.setCapture(&capture);

    // The first active flow on engine A gets ID 0.
    bench::Obs::probe(world.sim, "cwnd_segments", [&world] {
        return world.engineA->peekTcb(0).cwnd / 1460.0;
    });

    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    auto client_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 8192;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    std::printf("lossy bulk transfer, 150 ms, drops at "
                "15/40/65/90/115/135 ms\n");
    world.sim.runFor(sim::millisecondsToTicks(150));

    tcp::Tcb tcb = world.engineA->peekTcb(0);
    std::printf("final cwnd: %.1f segments, sender delivered %llu bytes\n",
                tcb.cwnd / 1460.0,
                static_cast<unsigned long long>(sender.bytesSent()));

    world.sim.setCapture(nullptr);
    obs::Spans spans(capture, world.spanHosts());
    if (sim::trace::TraceEventSink *timeline = world.sim.timeline())
        spans.draw(*timeline);
    std::printf("\nper-stage latency from request spans "
                "(drops force wire re-entries):\n");
    obs::printStageTable(stdout, spans);
    std::printf("\ncritical path of the slowest request:\n");
    obs::printSlowestCriticalPath(stdout, spans);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    bench::Obs::install(argc, argv);

    bool lossy = false;
    bench::CliArgs("http_server", "[--lossy]")
        .flag("--lossy", lossy)
        .parse(argc, argv);
    if (lossy)
        return runLossyBulk();

    std::printf("HTTP serving, one server core, 64 connections\n");
    std::printf("(the same HttpServerApp source runs on both stacks)\n\n");

    Outcome linux_outcome = serveOnLinux();
    std::printf("Linux TCP stack:  %.2f Mrps  (app %.0f%% of CPU, "
                "kernel TCP %.0f%%)\n",
                linux_outcome.mrps, 100 * linux_outcome.app_share,
                100 * linux_outcome.tcp_share);

    Outcome f4t_outcome = serveOnF4t();
    std::printf("F4T full offload: %.2f Mrps  (app %.0f%% of CPU, "
                "kernel TCP %.0f%%)\n",
                f4t_outcome.mrps, 100 * f4t_outcome.app_share,
                100 * f4t_outcome.tcp_share);

    std::printf("\nspeedup: %.2fx (the paper reports 2.6x-2.8x)\n",
                f4t_outcome.mrps / linux_outcome.mrps);
    return 0;
}
