/**
 * @file
 * End-to-end scenario tests over the star testbed: open-loop KV load
 * against the shared-buffer switch, trace record/replay round-trip,
 * connection-churn lifecycle accounting, and multi-segment tail-loss
 * recovery (the RTO path open-loop incast leans on).
 *
 * Registered under the ctest label "scenarios" (see CMakeLists) so CI
 * can run the scenario suite as its own smoke job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/kv.hh"
#include "apps/testbed_star.hh"
#include "load/open_loop.hh"
#include "load/trace.hh"

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

/** One run's dispatches, read back from the trace every client wrote
 *  through one shared TraceWriter and put in canonical order, plus
 *  per-client completion counts. */
struct GenerationResult
{
    std::vector<load::TraceRecord> merged;
    std::uint64_t dispatched = 0;
    std::vector<std::uint64_t> completed;
    std::vector<std::uint64_t> valueBytesReceived;
    std::vector<std::uint64_t> valueBytesSent;
};

GenerationResult
runScenario(std::size_t num_clients, sim::Tick duration,
            const std::vector<std::vector<load::TraceRecord>> *replay,
            const std::string &trace_path)
{
    testbed::StarConfig config;
    config.clients = num_clients;
    testbed::StarWorld world(config);

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerApp server(server_api, {});
    server.start();

    load::TraceWriter writer;
    EXPECT_TRUE(writer.open(trace_path, "replay-test", 0xABCD));

    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis;
    std::vector<std::unique_ptr<load::OpenLoopClientApp>> clients;
    for (std::size_t i = 0; i < num_clients; ++i) {
        apis.push_back(world.makeClientApi(i));
        load::OpenLoopConfig ocfg;
        ocfg.peer = testbed::starServerIp();
        ocfg.connections = 2;
        ocfg.streamBase = static_cast<std::uint32_t>(i) * 64;
        ocfg.clientId = static_cast<std::uint32_t>(i);
        ocfg.seed = 0xABCD;
        ocfg.arrivals = load::ArrivalSpec::poisson(60'000.0);
        ocfg.valueSizes = load::SizeSpec::logNormalSize(512.0, 0.7, 64,
                                                        16384);
        ocfg.readFraction = 0.5;
        ocfg.startAt = sim::microsecondsToTicks(20);
        ocfg.traceWriter = &writer;
        if (replay != nullptr)
            ocfg.replay = &(*replay)[i];
        clients.push_back(
            std::make_unique<load::OpenLoopClientApp>(*apis.back(), ocfg));
        clients.back()->start();
    }

    world.sim.runFor(duration);

    GenerationResult result;
    for (auto &client : clients) {
        result.dispatched += client->dispatched();
        result.completed.push_back(client->completed());
        result.valueBytesReceived.push_back(client->valueBytesReceived());
        result.valueBytesSent.push_back(client->valueBytesSent());
    }
    EXPECT_TRUE(writer.close());
    std::optional<load::TraceFile> trace = load::readTrace(trace_path);
    EXPECT_TRUE(trace.has_value());
    if (trace.has_value())
        result.merged = std::move(trace->records);
    std::sort(result.merged.begin(), result.merged.end(),
              [](const load::TraceRecord &a, const load::TraceRecord &b) {
                  return std::tie(a.timePs, a.client, a.conn, a.valueBytes) <
                         std::tie(b.timePs, b.client, b.conn, b.valueBytes);
              });
    return result;
}

TEST(Scenarios, TraceReplayReproducesFingerprintAndByteCounts)
{
    constexpr std::size_t num_clients = 2;
    const sim::Tick duration = sim::microsecondsToTicks(700);
    std::string path = ::testing::TempDir() + "/f4t_scenario_replay.flows";

    // The generation run records through the file format, so its
    // trace has already round-tripped when it is split per client.
    GenerationResult original =
        runScenario(num_clients, duration, nullptr, path);
    std::uint64_t original_fp = load::traceFingerprint(original.merged);
    ASSERT_GT(original.merged.size(), 0u);
    ASSERT_EQ(original.merged.size(), original.dispatched);

    std::vector<std::vector<load::TraceRecord>> per_client(num_clients);
    for (const auto &r : original.merged)
        per_client[r.client].push_back(r);

    GenerationResult replayed =
        runScenario(num_clients, duration, &per_client, path);

    EXPECT_EQ(load::traceFingerprint(replayed.merged), original_fp)
        << "replay dispatched a different request stream";
    for (std::size_t i = 0; i < num_clients; ++i) {
        EXPECT_EQ(replayed.completed[i], original.completed[i])
            << "client " << i;
        EXPECT_EQ(replayed.valueBytesReceived[i],
                  original.valueBytesReceived[i])
            << "client " << i;
        EXPECT_EQ(replayed.valueBytesSent[i], original.valueBytesSent[i])
            << "client " << i;
    }
    std::remove(path.c_str());
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
