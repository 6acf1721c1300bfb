/**
 * @file
 * Cycle-level tests for the Flow Processing Core (Section 4.2):
 *
 *  - events are absorbed at exactly one per two cycles (125 M/s at
 *    250 MHz) regardless of the FPU program's latency;
 *  - the dual memory + TCB manager reconstruct the same state atomic
 *    RMW would have produced, even with events landing while the FPU
 *    is mid-flight;
 *  - the CAM, eviction (only processed TCBs leave), and the
 *    swap-in port behave per the paper's protocol.
 */

#include <gtest/gtest.h>

#include "core/fpc.hh"
#include "harness.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace f4t::core
{
namespace
{

struct FpcFixture : ::testing::Test
{
    sim::Simulation sim;
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program{cc};

    std::unique_ptr<Fpc>
    makeFpc(unsigned latency_override = 0, std::size_t slots = 16)
    {
        FpcConfig config;
        config.slots = slots;
        config.inputFifoDepth = 1024; // isolate FPC timing from
                                      // scheduler backpressure
        config.fpuLatencyOverride = latency_override;
        return std::make_unique<Fpc>(sim, "fpc", sim.engineClock(),
                                     program, config);
    }

    tcp::Tcb
    syntheticTcb(tcp::FlowId flow)
    {
        tcp::Tcb tcb;
        tcb.flowId = flow;
        tcb.mss = 1460;
        tcb.iss = tcp::FpuProgram::initialSequence(flow);
        tcb.sndUna = tcb.iss + 1;
        tcb.sndUnaProcessed = tcb.sndUna;
        tcb.sndNxt = tcb.iss + 1;
        tcb.req = tcb.iss + 1;
        tcb.lastAckNotified = tcb.iss + 1;
        tcb.state = tcp::ConnState::established;
        tcb.sndWnd = 1u << 30;
        tcb.cwnd = 1u << 30;
        tcb.ssthresh = 1u << 30;
        tcb.ccPhase = tcp::CcPhase::congestionAvoidance;
        tcb.irs = 0;
        tcb.rcvNxt = 1;
        tcb.userRead = 1;
        tcb.lastAckSent = 1;
        tcb.lastRcvNotified = 1;
        tcb.lastWndAdvertised = 1 + tcb.receiveWindow();
        return tcb;
    }

    void
    install(Fpc &fpc, tcp::FlowId flow)
    {
        MigratingTcb fresh;
        fresh.tcb = syntheticTcb(flow);
        // Respect the one-per-two-cycles swap-in port.
        while (!fpc.canAcceptTcb())
            sim.runFor(sim.engineClock().period());
        fpc.installTcb(fresh);
    }

    tcp::TcpEvent
    sendEvent(tcp::FlowId flow, std::uint32_t offset)
    {
        tcp::TcpEvent ev;
        ev.flow = flow;
        ev.type = tcp::TcpEventType::userSend;
        ev.pointer = tcp::FpuProgram::initialSequence(flow) + 1 + offset;
        return ev;
    }
};

TEST_F(FpcFixture, AbsorbsOneEventPerTwoCycles)
{
    auto fpc = makeFpc();
    install(*fpc, 0);

    constexpr int n = 512;
    for (int i = 0; i < n; ++i)
        fpc->enqueueEvent(sendEvent(0, (i + 1) * 100));

    sim::Cycles start = sim.engineClock().curCycle();
    // Run until the input FIFO drains.
    while (fpc->eventsHandled() < static_cast<std::uint64_t>(n))
        sim.runFor(sim.engineClock().period());
    sim::Cycles elapsed = sim.engineClock().curCycle() - start;

    // One event per two cycles: 125 M events/s at 250 MHz.
    EXPECT_NEAR(static_cast<double>(elapsed), 2.0 * n, 8.0);
}

TEST_F(FpcFixture, EventRateIndependentOfFpuLatency)
{
    // The versatility claim (Fig. 15): latency 1 vs 100 cycles, same
    // event absorption rate.
    for (unsigned latency : {1u, 14u, 41u, 68u, 100u}) {
        sim::Simulation local_sim;
        FpcConfig config;
        config.slots = 16;
        config.inputFifoDepth = 4096;
        config.fpuLatencyOverride = latency;
        Fpc fpc(local_sim, "fpc", local_sim.engineClock(), program,
                config);

        MigratingTcb fresh;
        fresh.tcb = syntheticTcb(3);
        fpc.installTcb(fresh);

        constexpr int n = 1000;
        for (int i = 0; i < n; ++i) {
            tcp::TcpEvent ev = sendEvent(3, (i + 1) * 10);
            fpc.enqueueEvent(ev);
        }
        sim::Cycles start = local_sim.engineClock().curCycle();
        while (fpc.eventsHandled() < static_cast<std::uint64_t>(n))
            local_sim.runFor(local_sim.engineClock().period());
        sim::Cycles elapsed = local_sim.engineClock().curCycle() - start;
        EXPECT_NEAR(static_cast<double>(elapsed), 2.0 * n, 10.0)
            << "latency " << latency;
    }
}

TEST_F(FpcFixture, AccumulatedEventsProcessAllAtOnce)
{
    auto fpc = makeFpc(/*latency=*/41);
    install(*fpc, 1);

    std::vector<tcp::SegmentRequest> segments;
    fpc->setActionSink([&](tcp::FlowId, tcp::FpuActions &&actions) {
        for (auto &seg : actions.segments)
            segments.push_back(seg);
    });

    // Eight 100 B requests accumulate; the FPU pass emits the
    // equivalent of a single 800 B transfer (Section 4.2.2).
    for (int i = 1; i <= 8; ++i)
        fpc->enqueueEvent(sendEvent(1, i * 100));
    sim.runFor(sim::microsecondsToTicks(5));

    std::uint64_t total = 0;
    for (const auto &seg : segments)
        total += seg.length;
    EXPECT_EQ(total, 800u);
    // Far fewer passes than events (batching worked).
    EXPECT_LE(fpc->fpuPasses(), 3u);
}

TEST_F(FpcFixture, MatchesAtomicOracleUnderRandomEventStreams)
{
    // The dual-memory consistency property: the FPC's final state for
    // a flow equals a sequential oracle that applies each event
    // immediately with the same FPU program.
    auto fpc = makeFpc(/*latency=*/14);
    install(*fpc, 2);

    tcp::Tcb oracle = syntheticTcb(2);
    sim::Random rng(1234);
    net::SeqNum req = oracle.req;
    net::SeqNum peer_ack = oracle.sndUna;

    for (int i = 0; i < 300; ++i) {
        tcp::TcpEvent ev;
        ev.flow = 2;
        std::int32_t ackable = net::seqDiff(req, peer_ack);
        if (rng.chance(0.6) || ackable <= 0) {
            req += 1 + rng.below(500);
            ev.type = tcp::TcpEventType::userSend;
            ev.pointer = req;
        } else {
            // Peer cumulatively ACKs strictly forward (never a
            // duplicate: the deferred-vs-immediate equivalence being
            // tested is about cumulative state; congestion dynamics
            // under batching are checked separately).
            std::uint32_t step = 1 + rng.below(static_cast<std::uint32_t>(
                                       ackable > 400 ? 400 : ackable));
            peer_ack += step;
            ev.type = tcp::TcpEventType::rxSegment;
            ev.tcpFlags = net::TcpFlags::ack;
            ev.peerAck = peer_ack;
            ev.rcvUpTo = 1;
            ev.peerWnd = 1u << 30;
        }

        // Oracle: immediate atomic apply.
        {
            tcp::EventRecord record;
            tcp::accumulateEvent(record, oracle, ev);
            tcp::Tcb merged = tcp::merge(oracle, record);
            tcp::FpuActions actions;
            program.process(merged, sim.now() / 1'000'000, actions);
            oracle = merged;
        }

        while (!fpc->canAcceptEvent())
            sim.runFor(sim.engineClock().period());
        fpc->enqueueEvent(ev);
        // Occasionally let the engine drain completely.
        if (rng.chance(0.1))
            sim.runFor(sim::microsecondsToTicks(3));
    }
    sim.runFor(sim::microsecondsToTicks(10));

    tcp::Tcb final = fpc->peekMergedTcb(2);
    EXPECT_EQ(final.req, oracle.req);
    EXPECT_EQ(final.sndNxt, oracle.sndNxt);
    EXPECT_EQ(final.sndUna, oracle.sndUna);
    EXPECT_EQ(final.state, oracle.state);
}

TEST_F(FpcFixture, CamTracksResidencyExactly)
{
    auto fpc = makeFpc(0, 8);
    EXPECT_EQ(fpc->flowCount(), 0u);
    for (tcp::FlowId flow = 0; flow < 8; ++flow) {
        install(*fpc, flow);
        EXPECT_TRUE(fpc->hasFlow(flow));
    }
    EXPECT_TRUE(fpc->full());
    EXPECT_FALSE(fpc->canAcceptTcb());

    fpc->releaseFlow(3);
    EXPECT_FALSE(fpc->hasFlow(3));
    EXPECT_EQ(fpc->flowCount(), 7u);
    install(*fpc, 42);
    EXPECT_TRUE(fpc->hasFlow(42));
}

TEST_F(FpcFixture, EventForWrongFpcPanics)
{
    auto fpc = makeFpc();
    install(*fpc, 5);
    tcp::TcpEvent ev = sendEvent(99, 100);
    F4T_EXPECT_PANIC(fpc->enqueueEvent(ev), "non-resident flow");
}

TEST_F(FpcFixture, SwapInPortAcceptsOnePerTwoCycles)
{
    auto fpc = makeFpc();
    MigratingTcb first;
    first.tcb = syntheticTcb(10);
    ASSERT_TRUE(fpc->canAcceptTcb());
    fpc->installTcb(first);
    // Same two-cycle window: the dedicated write port is busy.
    EXPECT_FALSE(fpc->canAcceptTcb());
    sim.runFor(2 * sim.engineClock().period());
    EXPECT_TRUE(fpc->canAcceptTcb());
}

TEST_F(FpcFixture, EvictionWaitsForProcessedTcb)
{
    auto fpc = makeFpc(/*latency=*/41);
    install(*fpc, 6);

    std::vector<MigratingTcb> evicted;
    fpc->setEvictSink([&](MigratingTcb &&leaving) {
        evicted.push_back(std::move(leaving));
    });

    // Queue work, then request eviction: the evict checker only evicts
    // the TCB after its FPU pass completes, carrying the processed
    // state (req advanced, data sent).
    fpc->enqueueEvent(sendEvent(6, 700));
    fpc->requestEvict(6);
    sim.runFor(sim::microsecondsToTicks(5));

    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_FALSE(fpc->hasFlow(6));
    // Events that landed after the pass started travel with the TCB;
    // the merged view loses nothing.
    tcp::Tcb gone = tcp::merge(evicted[0].tcb, evicted[0].events);
    EXPECT_EQ(gone.flowId, 6u);
    EXPECT_EQ(gone.req, tcp::FpuProgram::initialSequence(6) + 1 + 700);
    EXPECT_GE(fpc->evictions(), 1u);
}

TEST_F(FpcFixture, EvictionDefersWhileFifoHoldsFlowEvents)
{
    auto fpc = makeFpc(/*latency=*/1);
    install(*fpc, 8);

    std::vector<MigratingTcb> evicted;
    fpc->setEvictSink([&](MigratingTcb &&leaving) {
        evicted.push_back(std::move(leaving));
    });

    // Many queued events; evict requested immediately. No event may be
    // orphaned: the eviction happens only once the FIFO holds no more
    // events of the flow, and the final TCB reflects all of them.
    for (int i = 1; i <= 40; ++i)
        fpc->enqueueEvent(sendEvent(8, i * 10));
    fpc->requestEvict(8);
    sim.runFor(sim::microsecondsToTicks(10));

    ASSERT_EQ(evicted.size(), 1u);
    tcp::Tcb merged = tcp::merge(evicted[0].tcb, evicted[0].events);
    EXPECT_EQ(merged.req, tcp::FpuProgram::initialSequence(8) + 1 + 400);
}

TEST_F(FpcFixture, ColdestFlowIsLeastRecentlyActive)
{
    auto fpc = makeFpc();
    for (tcp::FlowId flow = 0; flow < 4; ++flow)
        install(*fpc, flow);

    // Touch flows 0, 2, 3 with events; flow 1 stays cold.
    for (tcp::FlowId flow : {0u, 2u, 3u}) {
        fpc->enqueueEvent(sendEvent(flow, 100));
    }
    sim.runFor(sim::microsecondsToTicks(2));

    auto coldest = fpc->coldestFlow();
    ASSERT_TRUE(coldest.has_value());
    EXPECT_EQ(*coldest, 1u);
}

TEST_F(FpcFixture, ReleaseFlowViaConnectionClose)
{
    auto fpc = makeFpc();
    install(*fpc, 11);

    // Reset aborts the connection; the FPU's releaseFlow action must
    // recycle the slot.
    tcp::TcpEvent rst;
    rst.flow = 11;
    rst.type = tcp::TcpEventType::rxSegment;
    rst.tcpFlags = net::TcpFlags::rst;
    rst.peerWnd = 1000;
    rst.rcvUpTo = 1;

    bool released = false;
    fpc->setActionSink([&](tcp::FlowId flow, tcp::FpuActions &&actions) {
        if (flow == 11 && actions.releaseFlow)
            released = true;
    });
    fpc->enqueueEvent(rst);
    sim.runFor(sim::microsecondsToTicks(2));

    EXPECT_TRUE(released);
    EXPECT_FALSE(fpc->hasFlow(11));
    EXPECT_EQ(fpc->flowCount(), 0u);
}

TEST_F(FpcFixture, DupAckCountingSurvivesDeferredProcessing)
{
    auto fpc = makeFpc(/*latency=*/41);
    install(*fpc, 12);

    std::vector<tcp::SegmentRequest> retransmissions;
    fpc->setActionSink([&](tcp::FlowId, tcp::FpuActions &&actions) {
        for (auto &seg : actions.segments) {
            if (seg.retransmission)
                retransmissions.push_back(seg);
        }
    });

    // Put data in flight.
    fpc->enqueueEvent(sendEvent(12, 10000));
    sim.runFor(sim::microsecondsToTicks(3));

    // Three duplicate ACKs land back-to-back (single-cycle RMW path).
    net::SeqNum una = tcp::FpuProgram::initialSequence(12) + 1;
    for (int i = 0; i < 3; ++i) {
        tcp::TcpEvent dup;
        dup.flow = 12;
        dup.type = tcp::TcpEventType::rxSegment;
        dup.tcpFlags = net::TcpFlags::ack;
        dup.peerAck = una;
        dup.rcvUpTo = 1;
        dup.peerWnd = 1u << 30;
        fpc->enqueueEvent(dup);
    }
    sim.runFor(sim::microsecondsToTicks(3));

    ASSERT_FALSE(retransmissions.empty());
    EXPECT_EQ(retransmissions[0].seq, una);
    tcp::Tcb merged = fpc->peekMergedTcb(12);
    EXPECT_EQ(merged.ccPhase, tcp::CcPhase::fastRecovery);
}

} // namespace
} // namespace f4t::core
