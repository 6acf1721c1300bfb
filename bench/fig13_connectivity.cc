/**
 * @file
 * Figure 13: request processing rate of the 128 B echoing benchmark
 * versus the number of concurrent flows — the connectivity experiment
 * (Section 5.3).
 *
 * Every flow ping-pongs one message at a time, so the TCB access
 * pattern has minimal temporal locality: beyond the 1024 flows the
 * FPCs hold, every request forces TCB migration through the memory
 * hierarchy. DDR4's serialized random accesses throttle the rate;
 * HBM's pseudo-channels do not, leaving the PCIe/host path as the
 * ceiling. Linux supports all counts but at a low rate. (TONIC's SRAM
 * bound of 1 K flows is the comparison point that cannot run at all
 * past 1 K.)
 */

#include "apps/testbed.hh"
#include "apps/workloads.hh"
#include "bench_util.hh"

namespace f4t
{
namespace
{

constexpr std::size_t serverCores = 8;
constexpr std::size_t clientThreads = 8;

double
runF4t(std::size_t flows, bool hbm, sim::Tick warmup, sim::Tick window)
{
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 131072;
    // Ping-pong flows carry one 128 B message at a time: size the TCP
    // buffers accordingly (SO_RCVBUF-style tuning) or host memory for
    // tens of thousands of flows dwarfs the machine running the model.
    config.tcpBufferBytes = 8 * 1024;
    config.dram = hbm ? mem::DramConfig::hbm() : mem::DramConfig::ddr4();
    testbed::EnginePairWorld world(clientThreads, config);

    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < serverCores; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtimeB, i, world.cpuB->core(i)));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    world.sim.runFor(sim::microsecondsToTicks(20));

    std::vector<std::unique_ptr<apps::F4tSocketApi>> client_apis;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients;
    for (std::size_t i = 0; i < clientThreads; ++i) {
        client_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtimeA, i, world.cpuA->core(i)));
        apps::EchoClientConfig client_config;
        client_config.peer = testbed::ipB();
        client_config.flows = flows / clientThreads;
        client_config.connectSpacing = sim::nanosecondsToTicks(100);
        clients.push_back(std::make_unique<apps::EchoClientApp>(
            *client_apis.back(), nullptr, client_config));
        clients.back()->start();
    }

    world.sim.runFor(warmup);
    std::uint64_t before = 0;
    for (auto &client : clients)
        before += client->roundTrips();
    world.sim.runFor(window);
    std::uint64_t trips = 0;
    for (auto &client : clients)
        trips += client->roundTrips();
    return (trips - before) / sim::ticksToSeconds(window);
}

double
runLinux(std::size_t flows, sim::Tick warmup, sim::Tick window)
{
    baseline::LinuxHostConfig host_config;
    host_config.latencyJitter = false;
    host_config.sendBufBytes = 32 * 1024;
    host_config.recvBufBytes = 32 * 1024;
    testbed::LinuxPairWorld world(serverCores, host_config);

    std::vector<std::unique_ptr<apps::LinuxSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < serverCores; ++i) {
        // Low-locality penalty (tiny messages over many sockets).
        server_apis.push_back(std::make_unique<apps::LinuxSocketApi>(
            world.sim, *world.hostA, i,
            host::LinuxCosts::smallFlowPenalty / 2));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    world.sim.runFor(sim::microsecondsToTicks(20));

    std::vector<std::unique_ptr<apps::LinuxSocketApi>> client_apis;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients;
    for (std::size_t i = 0; i < clientThreads; ++i) {
        client_apis.push_back(std::make_unique<apps::LinuxSocketApi>(
            world.sim, *world.hostB, i));
        apps::EchoClientConfig client_config;
        client_config.peer = testbed::ipA();
        client_config.flows = flows / clientThreads;
        client_config.connectSpacing = sim::nanosecondsToTicks(100);
        clients.push_back(std::make_unique<apps::EchoClientApp>(
            *client_apis.back(), nullptr, client_config));
        clients.back()->start();
    }

    world.sim.runFor(warmup);
    std::uint64_t before = 0;
    for (auto &client : clients)
        before += client->roundTrips();
    world.sim.runFor(window);
    std::uint64_t trips = 0;
    for (auto &client : clients)
        trips += client->roundTrips();
    return (trips - before) / sim::ticksToSeconds(window);
}

} // namespace
} // namespace f4t

int
main(int argc, char **argv)
{
    using namespace f4t;
    sim::setVerbose(false);
    bench::Obs::install(argc, argv); // strips capture flags from argv

    // The largest flow count in the sweep; 16384/65536 approach the
    // paper's right edge but need tens of minutes of simulation per row.
    std::uint64_t max_flows = 4096;
    bench::CliArgs args("fig13_connectivity", "[--max-flows N]");
    args.number("--max-flows", 65536, max_flows).parse(argc, argv);
    if (max_flows < 256)
        args.fail("--max-flows needs at least 256, the first row");

    bench::banner("Figure 13",
                  "128 B echo request rate vs concurrent flows (8 cores)");

    bench::Table table({"flows", "Linux Mrps", "F4T-DRAM Mrps",
                        "F4T-HBM Mrps", "HBM/Linux"});
    for (std::size_t flows :
         {256u, 1024u, 4096u, 16384u, 65536u}) {
        if (flows > max_flows)
            break;
        // Setup time scales with flow count (handshakes); the Linux
        // stack's accept path is slower, so it warms up longer.
        sim::Tick warmup =
            sim::microsecondsToTicks(200 + flows * 0.15);
        sim::Tick linux_warmup =
            sim::microsecondsToTicks(200 + flows * 0.9);
        sim::Tick window = sim::microsecondsToTicks(400);
        // The overloaded Linux server delivers completions in bursts
        // (scheduler horizon); average over a longer window so the
        // sampling does not alias them.
        sim::Tick linux_window = sim::millisecondsToTicks(3);
        double linux_rate = runLinux(flows, linux_warmup, linux_window);
        double dram_rate = runF4t(flows, false, warmup, window);
        double hbm_rate = runF4t(flows, true, warmup, window);
        table.addRow({std::to_string(flows),
                      bench::fmt("%.2f", linux_rate / 1e6),
                      bench::fmt("%.2f", dram_rate / 1e6),
                      bench::fmt("%.2f", hbm_rate / 1e6),
                      bench::fmt("%.0fx", linux_rate > 0
                                              ? hbm_rate / linux_rate
                                              : 0)});
    }
    table.print();

    std::printf(
        "\nShape check (paper): F4T leads Linux at every count (paper:\n"
        "20x at 1 K; measured 25-39x). Past the 1024 SRAM-resident\n"
        "flows, throughput is a mix of resident flows at full rate and\n"
        "migration-bound rotation; the DRAM-vs-HBM divergence the paper\n"
        "reports (12x vs 44x Linux at 64 K) emerges when essentially\n"
        "all traffic is migration-bound — reach it with --max-flows\n"
        "16384 or 65536 (tens of minutes of simulation per row). TONIC\n"
        "stops existing past its 1 K SRAM bound.\n");
    return 0;
}
