/**
 * @file
 * Tests for the baseline systems and the application layer: the
 * w-RMW stalling engine's timing and functional equivalence, the
 * TONIC analytic model, the Linux host's demultiplexing and cost
 * accounting, and the HTTP applications end to end.
 */

#include <gtest/gtest.h>

#include "apps/http.hh"
#include "apps/workloads.hh"
#include "baseline/stalling_engine.hh"
#include "baseline/tonic_model.hh"
#include "harness.hh"

namespace f4t
{
namespace
{

TEST(StallingEngine, OccupancyIs17CyclesPerEvent)
{
    sim::Simulation sim;
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program(cc);
    baseline::StallingEngineConfig config; // 16 + 1
    baseline::StallingEngine engine(sim, "wrmw", sim.netClock(), program,
                                    config);
    EXPECT_EQ(engine.cyclesPerEvent(), 17u);

    tcp::FlowId flow = engine.createSyntheticFlow();
    constexpr int n = 100;
    for (int i = 1; i <= n; ++i) {
        tcp::TcpEvent ev;
        ev.flow = flow;
        ev.type = tcp::TcpEventType::userSend;
        ev.pointer =
            tcp::FpuProgram::initialSequence(flow) + 1 + i * 10;
        engine.injectEvent(ev);
    }
    sim::Tick start = sim.now();
    while (engine.eventsProcessed() < n)
        sim.runFor(sim.netClock().period());
    double cycles = static_cast<double>(sim.now() - start) /
                    sim.netClock().period();
    EXPECT_NEAR(cycles, 17.0 * n, 20);
}

TEST(StallingEngine, FunctionallyMatchesTheFpuProgram)
{
    // Same program, different processing architecture: the final TCB
    // must agree with a direct sequential application.
    sim::Simulation sim;
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program(cc);
    baseline::StallingEngineConfig config;
    baseline::StallingEngine engine(sim, "wrmw", sim.netClock(), program,
                                    config);
    tcp::FlowId flow = engine.createSyntheticFlow();

    tcp::Tcb oracle = engine.tcb(flow);
    for (int i = 1; i <= 50; ++i) {
        tcp::TcpEvent ev;
        ev.flow = flow;
        ev.type = tcp::TcpEventType::userSend;
        ev.pointer =
            tcp::FpuProgram::initialSequence(flow) + 1 + i * 100;
        engine.injectEvent(ev);

        tcp::EventRecord record;
        tcp::accumulateEvent(record, oracle, ev);
        tcp::Tcb merged = tcp::merge(oracle, record);
        tcp::FpuActions actions;
        program.process(merged, sim.now() / 1'000'000, actions);
        oracle = merged;
    }
    sim.runFor(sim::microsecondsToTicks(20));

    EXPECT_EQ(engine.tcb(flow).req, oracle.req);
    EXPECT_EQ(engine.tcb(flow).sndNxt, oracle.sndNxt);
}

TEST(StallingEngine, SramBoundRefusesMoreFlows)
{
    sim::Simulation sim;
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program(cc);
    baseline::StallingEngineConfig config;
    config.maxFlows = 4;
    baseline::StallingEngine engine(sim, "wrmw", sim.netClock(), program,
                                    config);
    for (int i = 0; i < 4; ++i)
        engine.createSyntheticFlow();
    F4T_EXPECT_PANIC(engine.createSyntheticFlow(), "SRAM full");
}

TEST(TonicModel, SegmentQuantizationShapesThroughput)
{
    baseline::TonicModel tonic;
    // Idealized: linear in request size.
    EXPECT_DOUBLE_EQ(tonic.idealThroughputBps(128), 100e6 * 128 * 8);
    // Native: a 129 B request costs two cycles.
    EXPECT_DOUBLE_EQ(tonic.nativeRequestsPerSecond(128), 100e6);
    EXPECT_DOUBLE_EQ(tonic.nativeRequestsPerSecond(129), 50e6);
    // Only single-cycle algorithms fit.
    EXPECT_TRUE(tonic.supportsAlgorithm(1));
    EXPECT_FALSE(tonic.supportsAlgorithm(14)); // NewReno needs 14
    EXPECT_EQ(tonic.maxFlows, 1024u);
}

TEST(LinuxHost, DemuxesFlowsToOwningCores)
{
    test::LinuxPairWorld world(4);
    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    // Clients on two different cores of host A: both streams must
    // arrive despite sharing one IP on the receiving side.
    auto api1 = world.apiA(1);
    auto api2 = world.apiA(2);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = test::ipB();
    sender_config.requestBytes = 1024;
    apps::BulkSenderApp sender1(api1, sender_config);
    apps::BulkSenderApp sender2(api2, sender_config);
    sender1.start();
    sender2.start();

    world.sim.runFor(sim::millisecondsToTicks(1));
    EXPECT_GT(sender1.bytesSent(), 100'000u);
    EXPECT_GT(sender2.bytesSent(), 100'000u);
    EXPECT_GT(sink.bytesReceived(), 200'000u);
    // Cycle accounting landed on the right cores.
    EXPECT_GT(world.hostA->core(1).totalBusyCycles(), 0.0);
    EXPECT_GT(world.hostA->core(2).totalBusyCycles(), 0.0);
    EXPECT_DOUBLE_EQ(world.hostA->core(3).totalBusyCycles(), 0.0);
}

TEST(HttpApps, ServeAndMeasureOverSoftStack)
{
    test::LinuxPairWorld world(2);
    world.hostA->setLatencyJitter(false);
    world.hostB->setLatencyJitter(false);

    auto server_api = world.apiA(0);
    apps::HttpServerConfig server_config;
    server_config.responseBytes = 256;
    apps::HttpServerApp server(server_api, server_config);
    server.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    auto client_api = world.apiB(0);
    sim::Histogram latency(world.sim.stats(), "test.httpLatency",
                           "latency (us)");
    apps::HttpLoadGenConfig gen_config;
    gen_config.peer = test::ipA();
    gen_config.connections = 8;
    apps::HttpLoadGenApp generator(client_api, &latency, gen_config);
    generator.start();

    world.sim.runFor(sim::millisecondsToTicks(3));

    EXPECT_EQ(generator.connectedFlows(), 8u);
    EXPECT_GT(generator.responses(), 500u);
    EXPECT_EQ(server.requestsServed(), generator.responses());
    EXPECT_GT(latency.count(), 100u);
    EXPECT_GT(latency.percentile(50), 0.0);
}

TEST(HttpApps, PipelinedRequestsAreAllAnswered)
{
    // Two requests that land in one segment must both be served (the
    // server's buffer scan handles back-to-back requests).
    test::LinuxPairWorld world(1);
    world.hostA->setLatencyJitter(false);
    world.hostB->setLatencyJitter(false);

    auto server_api = world.apiA(0);
    apps::HttpServerApp server(server_api, apps::HttpServerConfig{});
    server.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    tcp::SoftTcpStack &client = world.hostB->stack(0);
    std::string two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
    std::uint64_t got = 0;
    tcp::SoftTcpCallbacks callbacks;
    callbacks.onConnected = [&](tcp::SoftConnId id) {
        client.send(id, std::span(reinterpret_cast<const std::uint8_t *>(
                                      two.data()),
                                  two.size()));
    };
    callbacks.onReadable = [&](tcp::SoftConnId id, std::size_t) {
        std::uint8_t buf[4096];
        std::size_t n;
        while ((n = client.recv(id, std::span<std::uint8_t>(buf, 4096))) >
               0) {
            got += n;
        }
    };
    client.setCallbacks(callbacks);
    client.connect(test::ipA(), 80);

    world.sim.runFor(sim::millisecondsToTicks(1));
    EXPECT_EQ(server.requestsServed(), 2u);
    EXPECT_EQ(got, 512u); // two 256 B responses
}

TEST(EchoApps, RoundTripsBalanceAcrossManyFlows)
{
    test::LinuxPairWorld world(1);
    world.hostA->setLatencyJitter(false);
    world.hostB->setLatencyJitter(false);

    auto server_api = world.apiA(0);
    apps::EchoServerConfig server_config;
    apps::EchoServerApp server(server_api, server_config);
    server.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    auto client_api = world.apiB(0);
    apps::EchoClientConfig client_config;
    client_config.peer = test::ipA();
    client_config.flows = 32;
    apps::EchoClientApp client(client_api, nullptr, client_config);
    client.start();

    world.sim.runFor(sim::millisecondsToTicks(2));
    EXPECT_EQ(client.connectedFlows(), 32u);
    EXPECT_GT(client.roundTrips(), 300u);
    EXPECT_EQ(server.messagesEchoed(), client.roundTrips());
}

} // namespace
} // namespace f4t
