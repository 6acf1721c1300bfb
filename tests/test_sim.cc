/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering,
 * clock-domain arithmetic, statistics, RNG determinism.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "harness.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace f4t::sim
{
namespace
{

TEST(EventQueue, OrdersByTickThenPriorityThenInsertion)
{
    EventQueue queue;
    std::vector<int> order;

    queue.scheduleCallback(100, [&] { order.push_back(1); });
    queue.scheduleCallback(50, [&] { order.push_back(0); });
    queue.scheduleCallback(100, [&] { order.push_back(2); });
    queue.scheduleCallback(100, [&] { order.push_back(-1); },
                           Event::clockPriority);
    queue.run();

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], -1); // clock priority runs first at tick 100
    EXPECT_EQ(order[2], 1);
    EXPECT_EQ(order[3], 2);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue queue;
    int fired = 0;
    queue.scheduleCallback(10, [&] { ++fired; });
    queue.scheduleCallback(20, [&] { ++fired; });
    queue.scheduleCallback(30, [&] { ++fired; });

    queue.run(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(queue.now(), 20u);
    queue.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, DescheduleSquashesEvent)
{
    EventQueue queue;
    int fired = 0;

    struct CountEvent : Event
    {
        int &count;
        explicit CountEvent(int &c) : count(c) {}
        void process() override { ++count; }
    };

    CountEvent ev(fired);
    queue.schedule(&ev, 10);
    queue.deschedule(&ev);
    queue.run();
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(ev.scheduled());

    // Reschedulable after deschedule.
    queue.schedule(&ev, 20);
    queue.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue queue;
    Tick fired_at = 0;

    struct StampEvent : Event
    {
        EventQueue &q;
        Tick &stamp;
        StampEvent(EventQueue &queue_, Tick &s) : q(queue_), stamp(s) {}
        void process() override { stamp = q.now(); }
    };

    StampEvent ev(queue, fired_at);
    queue.schedule(&ev, 10);
    queue.reschedule(&ev, 500);
    queue.run();
    EXPECT_EQ(fired_at, 500u);
}

TEST(EventQueue, NestedSchedulingFromCallback)
{
    EventQueue queue;
    std::vector<Tick> stamps;
    queue.scheduleCallback(10, [&] {
        stamps.push_back(queue.now());
        queue.scheduleCallback(queue.now() + 5,
                               [&] { stamps.push_back(queue.now()); });
    });
    queue.run();
    ASSERT_EQ(stamps.size(), 2u);
    EXPECT_EQ(stamps[0], 10u);
    EXPECT_EQ(stamps[1], 15u);
}

TEST(ClockDomain, PeriodsMatchPaperFrequencies)
{
    Simulation sim;
    EXPECT_EQ(sim.engineClock().period(), 4000u); // 250 MHz = 4 ns
    // Periods round to whole picoseconds: within 0.05 % of nominal.
    EXPECT_NEAR(sim.netClock().frequency(), 322e6, 322e6 * 5e-4);
    EXPECT_NEAR(sim.hostClock().frequency(), 2.3e9, 2.3e9 * 5e-4);
}

TEST(ClockDomain, ClockEdgeIsStrictlyInTheFuture)
{
    Simulation sim;
    ClockDomain &clk = sim.engineClock();
    EXPECT_EQ(clk.clockEdge(), 4000u);

    sim.queue().scheduleCallback(4000, [&] {
        // Exactly on an edge: the next edge is one period later.
        EXPECT_EQ(clk.clockEdge(), 8000u);
        EXPECT_EQ(clk.clockEdge(3), 8000u + 3 * 4000u);
        EXPECT_EQ(clk.curCycle(), 1u);
    });
    sim.run();
}

TEST(ClockedObject, TicksEveryCycleUntilIdle)
{
    struct Ticker : ClockedObject
    {
        int remaining = 5;
        std::vector<Cycles> cycles;
        Ticker(Simulation &sim)
            : ClockedObject(sim, "ticker", sim.engineClock(),
                            prof::Cat::otherEvent)
        {}
        bool
        tick() override
        {
            cycles.push_back(curCycle());
            return --remaining > 0;
        }
    };

    Simulation sim;
    Ticker ticker(sim);
    ticker.activate();
    sim.run();

    ASSERT_EQ(ticker.cycles.size(), 5u);
    for (std::size_t i = 1; i < ticker.cycles.size(); ++i)
        EXPECT_EQ(ticker.cycles[i], ticker.cycles[i - 1] + 1);
    EXPECT_FALSE(ticker.active());
}

TEST(Stats, ScalarAndCounterAccumulate)
{
    Simulation sim;
    Scalar scalar(sim.stats(), "test.scalar", "a scalar");
    Counter counter(sim.stats(), "test.counter", "a counter");

    scalar += 2.5;
    scalar += 1.5;
    ++counter;
    counter += 9;

    EXPECT_DOUBLE_EQ(scalar.value(), 4.0);
    EXPECT_EQ(counter.value(), 10u);

    sim.stats().resetAll();
    EXPECT_DOUBLE_EQ(scalar.value(), 0.0);
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Stats, HistogramPercentilesAreExactBelowCap)
{
    Simulation sim;
    Histogram hist(sim.stats(), "test.hist", "a histogram");
    for (int i = 1; i <= 100; ++i)
        hist.sample(i);

    EXPECT_EQ(hist.count(), 100u);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);
    EXPECT_NEAR(hist.percentile(50), 50.5, 0.01);
    EXPECT_NEAR(hist.percentile(99), 99.01, 0.01);
    EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
}

TEST(Stats, HistogramReservoirKeepsDistribution)
{
    Simulation sim;
    Histogram hist(sim.stats(), "test.res", "capped", 1000);
    for (int i = 0; i < 100000; ++i)
        hist.sample(i % 1000);
    // Uniform 0..999: the median should stay near 500.
    EXPECT_NEAR(hist.percentile(50), 500, 60);
    EXPECT_EQ(hist.count(), 100000u);
}

TEST(Stats, DuplicateNameIsRejected)
{
    Simulation sim;
    Scalar a(sim.stats(), "dup.name", "first");
    F4T_EXPECT_PANIC(Scalar(sim.stats(), "dup.name", "second"),
                     "duplicate");
}

TEST(Stats, DumpContainsAllStats)
{
    Simulation sim;
    Scalar a(sim.stats(), "x.a", "alpha");
    Counter b(sim.stats(), "x.b", "beta");
    a = 3;
    std::ostringstream os;
    sim.stats().dump(os);
    EXPECT_NE(os.str().find("x.a 3"), std::string::npos);
    EXPECT_NE(os.str().find("x.b 0"), std::string::npos);
}

TEST(Random, DeterministicAcrossInstances)
{
    Random a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Random, UniformInRange)
{
    Random rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        ASSERT_LT(rng.below(10), 10u);
        auto v = rng.between(5, 9);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 9u);
    }
}

TEST(Random, ExponentialMeanConverges)
{
    Random rng(99);
    double sum = 0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

} // namespace
} // namespace f4t::sim
