/**
 * @file
 * Tests for the per-flow timer module: arming, re-arming, cancelling
 * and flow-ID reuse. A timer fires through its generation check, so a
 * superseded or cancelled arm must stay silent even though its queued
 * arm event still runs. The arm events come from a wheel-owned pool:
 * they must keep the queue's (tick, priority, seq) order with other
 * events, recycle, and leave the queue cleanly with their wheel.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/timer_wheel.hh"
#include "sim/simulation.hh"

namespace f4t::core
{
namespace
{

struct Fired
{
    sim::Tick when;
    tcp::FlowId flow;
    tcp::TimeoutKind kind;
};

struct TimerWheelFixture : ::testing::Test
{
    sim::Simulation sim;
    TimerWheel wheel{sim, "timers"};
    std::vector<Fired> fired;

    TimerWheelFixture()
    {
        wheel.setSink([this](const tcp::TcpEvent &event) {
            ASSERT_EQ(event.type, tcp::TcpEventType::timeout);
            fired.push_back({sim.now(), event.flow, event.timeoutKind});
        });
    }

    void
    arm(tcp::FlowId flow, tcp::TimeoutKind kind, std::uint64_t deadline_us)
    {
        tcp::TimerRequest request;
        request.flow = flow;
        request.kind = kind;
        request.deadlineUs = deadline_us;
        wheel.program(request);
    }
};

TEST_F(TimerWheelFixture, FiresOnTheExactDeadlineTick)
{
    arm(3, tcp::TimeoutKind::retransmit, 250);
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].when, sim::microsecondsToTicks(250));
    EXPECT_EQ(fired[0].flow, 3u);
    EXPECT_EQ(fired[0].kind, tcp::TimeoutKind::retransmit);
}

TEST_F(TimerWheelFixture, ReArmSupersedesTheEarlierDeadline)
{
    arm(1, tcp::TimeoutKind::retransmit, 100);
    arm(1, tcp::TimeoutKind::retransmit, 300);
    // Another kind on the same flow keeps its own deadline.
    arm(1, tcp::TimeoutKind::delayedAck, 200);
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].when, sim::microsecondsToTicks(200));
    EXPECT_EQ(fired[0].kind, tcp::TimeoutKind::delayedAck);
    EXPECT_EQ(fired[1].when, sim::microsecondsToTicks(300));
    EXPECT_EQ(fired[1].kind, tcp::TimeoutKind::retransmit);
}

TEST_F(TimerWheelFixture, DeadlineZeroCancels)
{
    arm(7, tcp::TimeoutKind::probe, 100);
    arm(7, tcp::TimeoutKind::probe, 0);
    sim.run();
    EXPECT_TRUE(fired.empty());
}

TEST_F(TimerWheelFixture, ReusedFlowNeverSeesTheOldFlowsTimeout)
{
    for (auto kind : {tcp::TimeoutKind::retransmit, tcp::TimeoutKind::probe,
                      tcp::TimeoutKind::delayedAck,
                      tcp::TimeoutKind::timeWait})
        arm(5, kind, 100);
    wheel.cancelAll(5);
    // The flow ID is recycled: the new owner arms later than the old
    // flow's deadline, and only that deadline may fire.
    arm(5, tcp::TimeoutKind::retransmit, 400);
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].when, sim::microsecondsToTicks(400));
    EXPECT_EQ(fired[0].flow, 5u);

    // Cancelling a flow that never armed a timer is a no-op.
    wheel.cancelAll(1000);
    sim.run();
    EXPECT_EQ(fired.size(), 1u);
}

TEST_F(TimerWheelFixture, ArmsAndCallbacksAtOneTickFireInScheduleOrder)
{
    // Same tick, same priority: the queue's insertion sequence decides,
    // whichever kind of event was scheduled first.
    std::vector<std::string> order;
    wheel.setSink([&](const tcp::TcpEvent &event) {
        order.push_back("arm" + std::to_string(event.flow));
    });
    sim::Tick at = sim::microsecondsToTicks(100);
    auto callback = [&](int id) {
        sim.queue().scheduleCallback(at, [&order, id] {
            order.push_back("cb" + std::to_string(id));
        });
    };
    callback(0);
    arm(1, tcp::TimeoutKind::retransmit, 100);
    arm(2, tcp::TimeoutKind::retransmit, 100);
    callback(3);
    arm(4, tcp::TimeoutKind::delayedAck, 100);
    callback(5);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"cb0", "arm1", "arm2", "cb3",
                                                "arm4", "cb5"}));
}

TEST_F(TimerWheelFixture, ReArmingRecyclesArmsAcrossRuns)
{
    // Every round re-arms one timer three times before its deadline:
    // three arms pending at once, two of them superseded. Fired arms,
    // live or stale, return to the pool for the next round.
    for (int round = 0; round < 200; ++round) {
        std::uint64_t base = sim.now() / sim::microsecondsToTicks(1);
        for (std::uint64_t step = 1; step <= 3; ++step)
            arm(9, tcp::TimeoutKind::retransmit, base + 10 * step);
        sim.run();
    }
    EXPECT_EQ(fired.size(), 200u);
    EXPECT_EQ(wheel.armsAllocated(), 3u);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(TimerWheelTeardown, DestroyingTheWheelRemovesItsPendingArms)
{
    sim::Simulation sim;
    int callbacks = 0;
    int timeouts = 0;
    auto wheel = std::make_unique<TimerWheel>(sim, "timers");
    wheel->setSink([&timeouts](const tcp::TcpEvent &) { ++timeouts; });
    // Thousands of arms across the ladder and the far heap, half of
    // them superseded, interleaved with callbacks that outlive it.
    constexpr std::uint32_t flows = 4096;
    for (std::uint32_t flow = 0; flow < flows; ++flow) {
        tcp::TimerRequest request;
        request.flow = flow;
        request.deadlineUs = 1 + flow % 2000;
        wheel->program(request);
        if (flow % 2 == 0) {
            request.deadlineUs += 5000;
            wheel->program(request);
        }
        if (flow % 64 == 0)
            sim.queue().scheduleCallback(
                sim::microsecondsToTicks(1 + flow % 3000),
                [&callbacks] { ++callbacks; });
    }
    sim.run(sim::microsecondsToTicks(1));
    ASSERT_GT(sim.queue().size(), flows);
    std::size_t survivors = flows / 64 - 1; // flow 0's ran at 1 µs
    int timeouts_before = timeouts;

    wheel.reset();
    EXPECT_EQ(sim.queue().size(), survivors);
    EXPECT_EQ(sim.queue().squashedEntries(), 0u);
    sim.run();
    EXPECT_EQ(callbacks, static_cast<int>(flows / 64));
    EXPECT_EQ(timeouts, timeouts_before);
    EXPECT_TRUE(sim.queue().empty());
}

} // namespace
} // namespace f4t::core
