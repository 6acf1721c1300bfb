/**
 * @file
 * End-to-end integration tests: full FtEngine systems exchanging real
 * TCP over the link model, through the F4T library, runtime, PCIe, and
 * host buffers — the whole Figure 3 stack.
 */

#include <gtest/gtest.h>

#include "apps/workloads.hh"
#include "harness.hh"
#include "net/payload_buffer.hh"
#include "sim/check.hh"

namespace f4t
{
namespace
{

using test::EnginePairWorld;
using test::EngineLinuxWorld;
using test::LinuxPairWorld;

TEST(EngineE2E, SoftTcpLoopbackSmoke)
{
    // Sanity-check the harness with the software stack first.
    LinuxPairWorld world(1);
    world.hostA->config();

    auto server_api = world.apiB(0);
    auto client_api = world.apiA(0);

    apps::BulkSinkConfig sink_config;
    sink_config.verifyPattern = true;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 1024;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    world.sim.runFor(sim::secondsToTicks(0.005));

    EXPECT_GT(sender.bytesSent(), 100'000u);
    EXPECT_GT(sink.bytesReceived(), 100'000u);
    EXPECT_EQ(sink.patternErrors(), 0u);
}

TEST(EngineE2E, EnginePairBulkTransferIntegrity)
{
    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 32;
    config.maxFlows = 1024;
    EnginePairWorld world(1, config);

    auto server_api = world.apiB(0);
    auto client_api = world.apiA(0);

    apps::BulkSinkConfig sink_config;
    sink_config.verifyPattern = true;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 128;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    world.sim.runFor(sim::secondsToTicks(0.002));

    EXPECT_TRUE(sender.connected());
    EXPECT_GT(sender.bytesSent(), 10'000u);
    EXPECT_GT(sink.bytesReceived(), 10'000u);
    EXPECT_EQ(sink.patternErrors(), 0u);
}

TEST(EngineE2E, BulkSenderKeepsThePatternAcrossShortAccepts)
{
    // A 16 KiB request overruns the send buffer, so the sender blocks
    // after a short accept that leaves the stream mid-pattern. The next
    // request must resume at that pattern offset, not at its start.
    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 32;
    config.maxFlows = 1024;
    EnginePairWorld world(1, config);

    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    sink_config.verifyPattern = true;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    auto client_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 16 * 1024;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    std::size_t mid_pattern_stops = 0;
    for (int step = 0; step < 2000; ++step) {
        world.sim.runFor(sim::microsecondsToTicks(1));
        if (sender.bytesSent() % apps::patternPeriod != 0)
            ++mid_pattern_stops;
    }

    EXPECT_GT(mid_pattern_stops, 0u);
    EXPECT_GT(sink.bytesReceived(), 1'000'000u);
    EXPECT_EQ(sink.patternErrors(), 0u);
}

TEST(EngineE2E, CleanBulkTransferMakesNoPayloadCopies)
{
    // Payloads must move through the pipeline by transferring their
    // pooled buffer, never by duplicating bytes. On a fault-free bulk
    // transfer the checks-build copy counter therefore stays at zero;
    // any regression that reintroduces a hot-path copy (pass-by-value,
    // defensive duplication) trips this immediately.
    if constexpr (!sim::checksEnabled)
        GTEST_SKIP() << "copy accounting is compiled out in this build";

    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 32;
    config.maxFlows = 1024;
    EnginePairWorld world(1, config);

    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    sink_config.verifyPattern = true;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    auto client_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 128;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    net::PayloadBuffer::resetCopyCount();
    world.sim.runFor(sim::secondsToTicks(0.002));

    EXPECT_GT(sink.bytesReceived(), 10'000u);
    EXPECT_EQ(net::PayloadBuffer::copiesObserved(), 0u);
}

TEST(EngineE2E, EngineInteroperatesWithSoftwareTcp)
{
    // The engine must speak real TCP: a software stack as the peer.
    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 32;
    config.maxFlows = 256;
    EngineLinuxWorld world(1, 1, config);

    // Engine side sends; Linux side receives and verifies.
    auto linux_api = world.linuxApi(0);
    apps::BulkSinkConfig sink_config;
    sink_config.verifyPattern = true;
    apps::BulkSinkApp sink(linux_api, sink_config);
    sink.start();

    auto engine_api = world.engineApi(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 512;
    apps::BulkSenderApp sender(engine_api, sender_config);
    sender.start();

    world.sim.runFor(sim::secondsToTicks(0.002));

    EXPECT_TRUE(sender.connected());
    EXPECT_GT(sink.bytesReceived(), 10'000u);
    EXPECT_EQ(sink.patternErrors(), 0u);
}

TEST(EngineE2E, EchoRoundTripsAcrossEngines)
{
    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 32;
    config.maxFlows = 1024;
    EnginePairWorld world(1, config);

    auto server_api = world.apiB(0);
    apps::EchoServerConfig server_config;
    apps::EchoServerApp server(server_api, server_config);
    server.start();

    auto client_api = world.apiA(0);
    apps::EchoClientConfig client_config;
    client_config.peer = test::ipB();
    client_config.flows = 8;
    sim::Histogram latency(world.sim.stats(), "test.echoLatency",
                           "echo round-trip latency (us)");
    apps::EchoClientApp client(client_api, &latency, client_config);
    client.start();

    world.sim.runFor(sim::secondsToTicks(0.003));

    EXPECT_EQ(client.connectedFlows(), 8u);
    EXPECT_GT(client.roundTrips(), 100u);
    EXPECT_GT(server.messagesEchoed(), 100u);
    // Round trips through two PCIe crossings and the wire: tens of us.
    EXPECT_LT(latency.percentile(50), 200.0);
}

TEST(EngineE2E, LossyLinkStillDeliversExactly)
{
    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 32;
    config.maxFlows = 1024;
    net::FaultModel faults;
    faults.dropProbability = 0.01;
    faults.reorderProbability = 0.02;
    faults.duplicateProbability = 0.005;
    faults.seed = 7;
    EnginePairWorld world(1, config, faults);

    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    sink_config.verifyPattern = true;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    auto client_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 1024;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    world.sim.runFor(sim::secondsToTicks(0.01));

    EXPECT_GT(sink.bytesReceived(), 50'000u);
    EXPECT_EQ(sink.patternErrors(), 0u);
    EXPECT_GT(world.engineA->packetGenerator().retransmissions(), 0u);
}

} // namespace
} // namespace f4t
