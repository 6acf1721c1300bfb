/**
 * @file
 * End-to-end scenario tests over the star testbed: open-loop KV load
 * against the shared-buffer switch, connection-churn lifecycle
 * accounting, and multi-segment tail-loss recovery (the RTO path
 * open-loop incast leans on).
 *
 * Registered under the ctest label "scenarios" (see CMakeLists) so CI
 * can run the scenario suite as its own smoke job.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/kv.hh"
#include "apps/testbed_star.hh"
#include "load/open_loop.hh"

namespace f4t
{
namespace
{

double
statValue(sim::Simulation &sim, const std::string &name)
{
    sim::StatBase *stat = sim.stats().find(name);
    return stat != nullptr ? stat->sampleValue() : -1.0;
}

TEST(Scenarios, OpenLoopKvAgainstStarWorldCompletes)
{
    testbed::StarConfig config;
    config.clients = 2;
    testbed::StarWorld world(config);

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerApp server(server_api, {});
    server.start();

    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis;
    std::vector<std::unique_ptr<load::OpenLoopClientApp>> clients;
    for (std::size_t i = 0; i < config.clients; ++i) {
        apis.push_back(world.makeClientApi(i));
        load::OpenLoopConfig ocfg;
        ocfg.peer = testbed::starServerIp();
        ocfg.connections = 2;
        ocfg.streamBase = static_cast<std::uint32_t>(i) * 64;
        ocfg.clientId = static_cast<std::uint32_t>(i);
        ocfg.seed = 0xBEEF;
        ocfg.arrivals = load::ArrivalSpec::poisson(80'000.0);
        ocfg.valueSizes = load::SizeSpec::boundedPareto(1.3, 128, 8192);
        ocfg.readFraction = 0.7;
        ocfg.startAt = sim::microsecondsToTicks(20);
        clients.push_back(
            std::make_unique<load::OpenLoopClientApp>(*apis.back(), ocfg));
        clients.back()->start();
    }

    world.sim.runFor(sim::microsecondsToTicks(800));

    std::uint64_t total_completed = 0;
    for (auto &client : clients) {
        EXPECT_GT(client->completed(), 0u);
        EXPECT_EQ(client->resets(), 0u);
        total_completed += client->completed();
    }
    // The server saw at least every request a client saw answered.
    EXPECT_GE(server.gets() + server.sets(), total_completed);
    EXPECT_EQ(server.protocolErrors(), 0u);
    EXPECT_EQ(world.fabric->routeMisses(), 0u);
}

TEST(Scenarios, ChurnLifecycleCompletesAndTearsDown)
{
    testbed::StarConfig config;
    config.clients = 1;
    testbed::StarWorld world(config);

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerApp server(server_api, {});
    server.start();

    auto api = world.makeClientApi(0);
    load::ChurnConfig ccfg;
    ccfg.peer = testbed::starServerIp();
    ccfg.seed = 0x5EED;
    ccfg.arrivals = load::ArrivalSpec::poisson(20'000.0);
    ccfg.requestBytes = 512;
    ccfg.maxOpens = 25;
    load::ChurnClientApp churn(*api, ccfg);
    churn.start();

    world.sim.runFor(sim::millisecondsToTicks(5));
    EXPECT_EQ(churn.opened(), 25u);
    EXPECT_EQ(churn.completed(), 25u);
    EXPECT_EQ(churn.failed(), 0u);

    // The active closer idles through TIME_WAIT (10 ms) before the
    // flow is recycled; only then does closedEvents catch up.
    world.sim.runFor(sim::millisecondsToTicks(15));
    EXPECT_EQ(churn.closedEvents(), 25u);
    EXPECT_EQ(statValue(world.sim, "client0.flowsClosed"), 25.0);
}

TEST(Scenarios, MultiSegmentTailLossRecoversViaRtoGoBackN)
{
    testbed::StarConfig config;
    config.clients = 1;
    // Wipe out the first request's initial flight on the
    // switch-to-server downlink. The client's 24 KB SET dispatches at
    // t = 150 us (startAt 50 us + one fixed 100 us gap) and its
    // ~10-segment first window occupies the downlink back-to-back
    // from roughly t = 151 us (1538 wire bytes = 123 ns per segment
    // at 100 Gb/s). Eight drop ticks at segment spacing kill the
    // flight almost entirely, so too few duplicate ACKs return for
    // fast retransmit and recovery MUST go through the RTO.
    for (int i = 0; i < 8; ++i)
        config.serverLinkFaults.dropAtTicks.push_back(
            sim::microsecondsToTicks(151.00 + 0.123 * i));
    // The schedule above applies to the data direction only; leave
    // the ACK path clean (the server sends so few ACKs that a shared
    // schedule would eat essentially all of them).
    config.serverLinkReverseFaults = net::FaultModel{};
    testbed::StarWorld world(config);

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerApp server(server_api, {});
    server.start();

    auto api = world.makeClientApi(0);
    load::OpenLoopConfig ocfg;
    ocfg.peer = testbed::starServerIp();
    ocfg.connections = 1;
    ocfg.clientId = 0;
    ocfg.seed = 0xF00D;
    ocfg.arrivals =
        load::ArrivalSpec::fixedEvery(sim::microsecondsToTicks(100));
    ocfg.valueSizes = load::SizeSpec::fixedSize(24 * 1024);
    ocfg.readFraction = 0.0; // SETs: client pushes the burst
    ocfg.maxRequests = 2;
    ocfg.startAt = sim::microsecondsToTicks(50);
    load::OpenLoopClientApp client(*api, ocfg);
    client.start();

    // Recovery needs one RTO (5 ms floor) plus a few RTTs of go-back-N
    // hole filling; 30 ms is an order of magnitude of slack. Before
    // the handshake RTT sample + post-RTO go-back-N fixes this wedged
    // for 200 ms+ (initial RTO, then one segment per backed-off RTO).
    world.sim.runFor(sim::millisecondsToTicks(30));

    EXPECT_EQ(client.completed(), 2u);
    EXPECT_EQ(server.sets(), 2u);
    EXPECT_EQ(client.resets(), 0u);
    // The drops really happened and really forced timeout recovery.
    EXPECT_GE(statValue(world.sim, "downlink.aToB.packetsDropped"), 4.0);
    EXPECT_GE(statValue(world.sim, "client0.timers.timeoutsFired"), 1.0);
    EXPECT_GE(
        statValue(world.sim, "client0.packetGenerator.retransmissions"),
        4.0);
}

} // namespace
} // namespace f4t
