/**
 * @file
 * Unit tests for the conservative parallel kernel building blocks:
 * the event-queue lower bound, the executor's window/barrier
 * mechanics, and cross-partition delivery through a net::Link split
 * between two partitions — all at the level below the full-stack
 * differential fuzzer (tests/fuzz/test_parallel_differential.cc).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "harness.hh"
#include "net/link.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"

namespace
{

using namespace f4t;
using sim::Tick;

// --- EventQueue::nextEventLowerBound -------------------------------------

struct CountingEvent : sim::Event
{
    void process() override { ++fired; }
    int fired = 0;
};

TEST(EventQueueLowerBound, TracksLoneEventLadderAndHeap)
{
    sim::Simulation sim;
    EXPECT_EQ(sim.queue().nextEventLowerBound(), sim::maxTick);

    CountingEvent lone;
    sim.queue().schedule(&lone, 100);
    EXPECT_EQ(sim.queue().nextEventLowerBound(), 100u);

    CountingEvent far;
    sim.queue().schedule(&far, 1'000'000); // far heap
    EXPECT_EQ(sim.queue().nextEventLowerBound(), 100u);

    sim.run(100);
    EXPECT_EQ(lone.fired, 1);
    EXPECT_EQ(sim.queue().nextEventLowerBound(), 1'000'000u);

    sim.run(1'000'000);
    EXPECT_EQ(far.fired, 1);
    EXPECT_EQ(sim.queue().nextEventLowerBound(), sim::maxTick);
}

TEST(EventQueueLowerBound, NeverExceedsNextLiveEvent)
{
    sim::Simulation sim;
    CountingEvent a, b;
    sim.queue().schedule(&a, 500);
    sim.queue().schedule(&b, 700);
    sim.queue().deschedule(&a); // squashed entry may lead the queue
    Tick bound = sim.queue().nextEventLowerBound();
    EXPECT_LE(bound, 700u); // conservative: early is fine, late is not
    sim.run(700);
    EXPECT_EQ(a.fired, 0);
    EXPECT_EQ(b.fired, 1);
}

// --- ParallelExecutor ----------------------------------------------------

/** Channel stub: fixed lookahead, hand-fed pending callbacks. */
struct StubChannel : sim::CrossChannel
{
    explicit StubChannel(Tick la) : la_(la) {}
    Tick lookahead() const override { return la_; }
    std::size_t
    drainInto() override
    {
        std::size_t n = pending.size();
        for (auto &fn : pending)
            fn();
        pending.clear();
        return n;
    }
    Tick la_;
    std::vector<std::function<void()>> pending;
};

TEST(ParallelExecutor, WindowsDerivedFromMinLookahead)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex;
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel wide(10'000), narrow(2'000);
    ex.addChannel(wide);
    ex.addChannel(narrow);
    EXPECT_EQ(ex.lookahead(), 2'000u);

    // Self-rescheduling tick in each partition keeps both queues busy.
    int ticks_a = 0, ticks_b = 0;
    std::function<void()> tick_a = [&] {
        ++ticks_a;
        pa.queue().scheduleCallback(pa.now() + 100, [&] { tick_a(); });
    };
    std::function<void()> tick_b = [&] {
        ++ticks_b;
        pb.queue().scheduleCallback(pb.now() + 100, [&] { tick_b(); });
    };
    pa.queue().scheduleCallback(0, [&] { tick_a(); });
    pb.queue().scheduleCallback(0, [&] { tick_b(); });

    EXPECT_EQ(ex.run(10'000), 10'000u);
    EXPECT_EQ(ticks_a, 101); // ticks at 0, 100, ..., 10000
    EXPECT_EQ(ticks_b, 101);
    EXPECT_EQ(ex.windowsRun(), 5u); // 10000 / 2000
    EXPECT_EQ(pa.now(), 10'000u);
    EXPECT_EQ(pb.now(), 10'000u);
}

TEST(ParallelExecutor, StopsOnGlobalDrainAndJumpsIdleGaps)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex;
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel ch(1'000);
    ex.addChannel(ch);

    int fired = 0;
    // One lonely far-future event: the executor should not grind
    // through ~1000 empty windows to reach it.
    pa.queue().scheduleCallback(1'000'000, [&] { ++fired; });
    EXPECT_EQ(ex.run(2'000'000), 2'000'000u);
    EXPECT_EQ(fired, 1);
    EXPECT_LE(ex.windowsRun(), 3u); // idle-gap jump, not 2000 windows
    // Drained clocks still pin to the limit (serial run() contract).
    EXPECT_EQ(pa.now(), 2'000'000u);
    EXPECT_EQ(pb.now(), 2'000'000u);

    // Nothing pending at all: the horizon still advances to the limit.
    std::uint64_t windows_before = ex.windowsRun();
    EXPECT_EQ(ex.run(3'000'000), 3'000'000u);
    EXPECT_EQ(ex.windowsRun(), windows_before); // one fast-forward, no windows
}

TEST(ParallelExecutor, CrossEventsDeliveredAtBarriers)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex;
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel ch(5'000);
    ex.addChannel(ch);

    // Partition A "sends" at tick 100: the effect lands in partition B
    // no earlier than the next barrier, at its stamped delivery tick.
    std::vector<Tick> deliveries;
    pa.queue().scheduleCallback(100, [&] {
        ch.pending.push_back([&] {
            pb.queue().scheduleCallback(100 + 5'000, [&] {
                deliveries.push_back(pb.now());
            });
        });
    });
    ex.run(20'000);
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0], 5'100u);
    EXPECT_EQ(ex.crossEventsDelivered(), 1u);
}

TEST(ParallelExecutor, RunsEveryPartitionOnTheCallingThread)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex;
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel ch(1'000);
    ex.addChannel(ch);

    // Each event also reads the log tick stamp, which must be its own
    // partition's clock: A runs its whole window (to 1'100) before B.
    std::thread::id ran_a, ran_b;
    std::uint64_t stamp_a = 0, stamp_b = 0;
    pa.queue().scheduleCallback(100, [&] {
        ran_a = std::this_thread::get_id();
        sim::detail::currentSimTick(stamp_a);
    });
    pb.queue().scheduleCallback(200, [&] {
        ran_b = std::this_thread::get_id();
        sim::detail::currentSimTick(stamp_b);
    });
    ex.run(10'000);
    EXPECT_EQ(ran_a, std::this_thread::get_id());
    EXPECT_EQ(ran_b, std::this_thread::get_id());
    EXPECT_EQ(stamp_a, 100u);
    EXPECT_EQ(stamp_b, 200u);

    // Unbinding a partition keeps the registration its constructor
    // made: the innermost simulation, pb, still stamps the logs.
    std::uint64_t stamp = 0;
    ASSERT_TRUE(sim::detail::currentSimTick(stamp));
    EXPECT_EQ(stamp, pb.now());
}

// --- Split net::Link end-to-end -------------------------------------------

struct RecordingSink : net::PacketSink
{
    explicit RecordingSink(sim::Simulation &sim) : sim(sim) {}
    void
    receivePacket(net::Packet &&pkt) override
    {
        arrivals.push_back(sim.now());
        bytes += pkt.payload.size();
    }
    sim::Simulation &sim;
    std::vector<Tick> arrivals;
    std::size_t bytes = 0;
};

net::Packet
makePacket(std::size_t payload_bytes)
{
    net::Packet pkt = net::Packet::makeTcp(
        net::MacAddress{}, net::MacAddress{}, net::Ipv4Address{},
        net::Ipv4Address{}, net::TcpHeader{});
    pkt.payload.resize(payload_bytes);
    return pkt;
}

TEST(LinkCrossingDeathTest, RegisterChannelsOnDirectCableDies)
{
    sim::Simulation sim;
    net::Link link(sim, "cable", 100e9, sim::nanosecondsToTicks(500));
    sim::ParallelExecutor ex;
    F4T_EXPECT_PANIC(link.registerChannels(ex), "only a split cable");
}

TEST(ParallelLink, DeliversAcrossPartitionsAtModeledArrival)
{
    sim::Simulation pa, pb;
    net::Link link(pa, pb, "cable", 100e9, sim::nanosecondsToTicks(500));
    RecordingSink sink_a(pa), sink_b(pb);
    link.connect(sink_a, sink_b);

    sim::ParallelExecutor ex;
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    link.registerChannels(ex);

    pa.queue().scheduleCallback(0, [&] {
        link.aToB().send(makePacket(1000));
        link.aToB().send(makePacket(1000));
    });
    ex.run(sim::microsecondsToTicks(10));

    ASSERT_EQ(sink_b.arrivals.size(), 2u);
    EXPECT_EQ(sink_b.bytes, 2000u);
    // Never before the modeled wire time: serialization of one
    // 1000 B frame at 100 Gbps ≈ 82 ns, propagation 500 ns.
    EXPECT_GE(sink_b.arrivals[0], sim::nanosecondsToTicks(500));
    EXPECT_LE(sink_b.arrivals[0], sink_b.arrivals[1]);
    EXPECT_EQ(link.aToB().packetsSent(), 2u);
    EXPECT_TRUE(sink_a.arrivals.empty());
}

} // namespace
