/**
 * @file
 * Key-value-store-style scenario: thousands of clients ping-ponging
 * small requests — the connectivity-stressing pattern of Section 5.3
 * (memcached-like workloads are what the paper's intro motivates with
 * "tens of thousands of flows").
 *
 * The example opens 2048 concurrent connections through two FtEngines
 * — twice what fits in the FPCs' SRAM — and shows the memory
 * orchestration keeping them all live: TCBs migrate between FPCs and
 * on-board HBM as flows take turns, invisibly to the sockets.
 */

#include <cstdio>

#include "apps/testbed.hh"
#include "apps/workloads.hh"

using namespace f4t;

int
main()
{
    sim::setVerbose(false);

    constexpr std::size_t flows = 2048;
    constexpr std::size_t threads = 8;

    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128; // 1024 flows of SRAM for 4096 flows
    config.maxFlows = 8192;
    config.dram = mem::DramConfig::hbm();
    testbed::EnginePairWorld world(threads, config);

    std::printf("key-value echo: %zu connections over engines with "
                "%zu x %zu SRAM TCB slots\n\n",
                flows, config.numFpcs, config.flowsPerFpc);

    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < threads; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtimeB, i, world.cpuB->core(i)));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    world.sim.runFor(sim::microsecondsToTicks(20));

    sim::Histogram latency(world.sim.stats(), "example.latency",
                           "round-trip latency (us)");
    std::vector<std::unique_ptr<apps::F4tSocketApi>> client_apis;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients;
    for (std::size_t i = 0; i < threads; ++i) {
        client_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtimeA, i, world.cpuA->core(i)));
        apps::EchoClientConfig client_config;
        client_config.peer = testbed::ipB();
        client_config.flows = flows / threads;
        client_config.connectSpacing = sim::nanosecondsToTicks(100);
        clients.push_back(std::make_unique<apps::EchoClientApp>(
            *client_apis.back(), &latency, client_config));
        clients.back()->start();
    }

    // Connection storm + steady state.
    world.sim.runFor(sim::millisecondsToTicks(3));
    std::size_t connected = 0;
    for (auto &client : clients)
        connected += client->connectedFlows();
    std::printf("connected: %zu / %zu flows\n", connected, flows);

    latency.reset();
    std::uint64_t before = 0;
    for (auto &client : clients)
        before += client->roundTrips();
    sim::Tick window = sim::microsecondsToTicks(400);
    world.sim.runFor(window);
    std::uint64_t trips = 0;
    for (auto &client : clients)
        trips += client->roundTrips();
    trips -= before;

    std::printf("steady state: %.2f M round trips/s, latency p50 %.1f "
                "us, p99 %.1f us\n",
                trips / sim::ticksToSeconds(window) / 1e6,
                latency.percentile(50), latency.percentile(99));

    std::uint64_t migrations = world.engineB->scheduler().migrations();
    std::uint64_t cache_hits = world.engineB->memoryManager().cacheHits();
    std::uint64_t cache_misses =
        world.engineB->memoryManager().cacheMisses();
    std::printf("\nserver engine kept %llu flows live with %llu TCB "
                "migrations;\nTCB cache: %llu hits / %llu misses; DRAM "
                "moved %llu bytes\n",
                static_cast<unsigned long long>(
                    world.engineB->flowsActive()),
                static_cast<unsigned long long>(migrations),
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                static_cast<unsigned long long>(
                    world.engineB->dram().bytesTransferred()));
    return connected >= flows * 9 / 10 ? 0 : 1;
}
