/**
 * @file
 * Tests for the per-flow timer module: arming, re-arming, cancelling
 * and flow-ID reuse. A timer fires through its generation check, so a
 * superseded or cancelled arm must stay silent even though its pooled
 * callback still runs.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace f4t::core
