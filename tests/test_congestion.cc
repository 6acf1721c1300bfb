/**
 * @file
 * Unit tests for the FPU congestion-control programs: NewReno, CUBIC
 * (fixed-point, with the integer cube root), and Vegas.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tcp/congestion.hh"

namespace f4t::tcp
{
namespace
{

Tcb
flowWith(const CongestionControl &cc, std::uint32_t in_flight = 0)
{
    Tcb tcb;
    tcb.mss = 1460;
    tcb.state = ConnState::established;
    cc.onInit(tcb);
    tcb.sndUna = 1000;
    tcb.sndNxt = 1000 + in_flight;
    return tcb;
}

TEST(CongestionCommon, InitSetsInitialWindow)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno);
    EXPECT_EQ(tcb.cwnd, 10u * 1460u);
    EXPECT_EQ(tcb.ccPhase, CcPhase::slowStart);
    EXPECT_GT(tcb.ssthresh, 1u << 30);
}

TEST(CongestionCommon, TimeoutCollapsesToOneSegment)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno, 100 * 1460);
    tcb.cwnd = 100 * 1460;
    reno.onTimeout(tcb, 1'000'000);
    EXPECT_EQ(tcb.cwnd, 1460u);
    EXPECT_EQ(tcb.ssthresh, 50u * 1460u);
    EXPECT_EQ(tcb.ccPhase, CcPhase::slowStart);
}

TEST(CongestionCommon, TimeoutSsthreshFloorIsTwoSegments)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno, 1000);
    reno.onTimeout(tcb, 0);
    EXPECT_EQ(tcb.ssthresh, 2u * 1460u);
}

TEST(NewReno, SlowStartDoublesPerRtt)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno);
    std::uint32_t start = tcb.cwnd;
    // One full window of ACKs, each for one MSS.
    std::uint32_t acks = start / 1460;
    for (std::uint32_t i = 0; i < acks; ++i)
        reno.onAck(tcb, 1460, 100, 1000);
    EXPECT_EQ(tcb.cwnd, 2 * start);
}

TEST(NewReno, CongestionAvoidanceGrowsOneMssPerRtt)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno);
    tcb.ssthresh = tcb.cwnd; // force CA
    reno.onAck(tcb, 1460, 100, 1000);
    EXPECT_EQ(tcb.ccPhase, CcPhase::congestionAvoidance);

    std::uint32_t before = tcb.cwnd;
    std::uint32_t acks = before / 1460;
    for (std::uint32_t i = 0; i < acks; ++i)
        reno.onAck(tcb, 1460, 100, 1000);
    EXPECT_NEAR(tcb.cwnd, before + 1460, 200);
}

TEST(NewReno, FastRecoveryHalvesWindow)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno, 80 * 1460);
    tcb.cwnd = 80 * 1460;
    reno.onEnterRecovery(tcb, 1000);
    EXPECT_EQ(tcb.ssthresh, 40u * 1460u);
    EXPECT_EQ(tcb.cwnd, 40u * 1460u + 3u * 1460u);
    EXPECT_EQ(tcb.ccPhase, CcPhase::fastRecovery);

    // Each further duplicate ACK inflates by one MSS.
    reno.onDupAckInRecovery(tcb);
    EXPECT_EQ(tcb.cwnd, 44u * 1460u);

    // Exit deflates back to ssthresh.
    reno.onExitRecovery(tcb);
    EXPECT_EQ(tcb.cwnd, 40u * 1460u);
    EXPECT_EQ(tcb.ccPhase, CcPhase::congestionAvoidance);
}

TEST(NewReno, PartialAckDeflatesAndRearms)
{
    NewRenoPolicy reno;
    Tcb tcb = flowWith(reno, 50 * 1460);
    tcb.cwnd = 50 * 1460;
    tcb.ccPhase = CcPhase::fastRecovery;
    std::uint32_t before = tcb.cwnd;
    reno.onPartialAck(tcb, 2 * 1460);
    EXPECT_EQ(tcb.cwnd, before - 2 * 1460 + 1460);
}

TEST(Cubic, CubeRootExactOnPerfectCubes)
{
    for (std::uint64_t r : {0ull, 1ull, 2ull, 7ull, 100ull, 1000ull,
                            2642245ull}) {
        EXPECT_EQ(CubicPolicy::cubeRoot(r * r * r), r);
    }
}

TEST(Cubic, CubeRootIsFloor)
{
    EXPECT_EQ(CubicPolicy::cubeRoot(26), 2u);   // 2^3=8, 3^3=27
    EXPECT_EQ(CubicPolicy::cubeRoot(27), 3u);
    EXPECT_EQ(CubicPolicy::cubeRoot(28), 3u);
    EXPECT_EQ(CubicPolicy::cubeRoot(999), 9u);  // 10^3 = 1000
    // Large inputs.
    std::uint64_t big = 0xffff'ffff'ffffull;
    std::uint64_t root = CubicPolicy::cubeRoot(big);
    EXPECT_LE(root * root * root, big);
    EXPECT_GT((root + 1) * (root + 1) * (root + 1), big);
}

TEST(Cubic, ReductionUsesBeta0_7)
{
    CubicPolicy cubic;
    Tcb tcb = flowWith(cubic, 100 * 1460);
    tcb.cwnd = 100 * 1460;
    cubic.onEnterRecovery(tcb, 1'000'000);
    // beta = 717/1024 ~ 0.7.
    EXPECT_NEAR(tcb.ssthresh, 70 * 1460, 1460);
    EXPECT_EQ(tcb.ccPhase, CcPhase::fastRecovery);
}

TEST(Cubic, ConcaveGrowthTowardWmax)
{
    // A loss at W_max = 100 segments with a 10 ms RTT. RFC 8312's
    // window is then the larger of W_cubic(t) = C(t-K)^3 + W_max and
    // the TCP-friendly W_est(t) = β·W_max + 3(1-β)/(1+β)·t/RTT, which
    // grows about 0.53 segments per RTT and leads from the start.
    CubicPolicy cubic;
    Tcb tcb = flowWith(cubic, 50 * 1460);
    tcb.cwnd = 100 * 1460;
    std::uint64_t t = 1'000'000;
    cubic.onEnterRecovery(tcb, t);
    cubic.onExitRecovery(tcb);
    EXPECT_EQ(tcb.cwnd / 1460, 70u);

    auto rfc_window = [](int rtts) {
        constexpr double beta = 0.7, c = 0.4, w_max = 100;
        double k = std::cbrt(w_max * (1 - beta) / c);
        double w_cubic = c * std::pow(rtts * 0.010 - k, 3) + w_max;
        double w_est = w_max * beta + 3 * (1 - beta) / (1 + beta) * rtts;
        return std::max(w_cubic, w_est);
    };

    std::uint32_t previous = tcb.cwnd;
    for (int rtt = 1; rtt <= 300; ++rtt) {
        t += 10'000;
        std::uint32_t acks = tcb.cwnd / 1460;
        for (std::uint32_t i = 0; i < acks; ++i)
            cubic.onAck(tcb, 1460, 10'000, t);
        // Without a loss the window never shrinks, so a drop is a wrap.
        ASSERT_GE(tcb.cwnd, previous) << "at RTT " << rtt;
        previous = tcb.cwnd;
        if (rtt == 2 || rtt == 3 || rtt == 11 || rtt == 50 || rtt == 100 ||
            rtt == 300) {
            EXPECT_NEAR(tcb.cwnd / 1460.0, rfc_window(rtt), 3.0)
                << "at RTT " << rtt;
        }
    }
}

TEST(Cubic, FastConvergenceLowersWmax)
{
    CubicPolicy cubic;
    Tcb tcb = flowWith(cubic, 100 * 1460);
    tcb.cwnd = 100 * 1460;
    cubic.onEnterRecovery(tcb, 1'000'000);

    // Second loss below the previous W_max triggers fast convergence:
    // the remembered W_max drops below the current cwnd's level.
    std::uint32_t cwnd_at_loss = tcb.cwnd;
    cubic.onEnterRecovery(tcb, 2'000'000);
    EXPECT_LT(tcb.cwnd, cwnd_at_loss);
}

TEST(Vegas, HoldsWindowInsideAlphaBetaBand)
{
    VegasPolicy vegas;
    Tcb tcb = flowWith(vegas);
    tcb.ssthresh = tcb.cwnd; // CA
    vegas.onAck(tcb, 1460, 10'000, 0);
    tcb.ccPhase = CcPhase::congestionAvoidance;
    tcb.minRttUs = 10'000;
    std::uint32_t cwnd = tcb.cwnd;

    // RTT equal to baseRTT -> diff 0 < alpha -> +1 MSS per RTT.
    vegas.onAck(tcb, 1460, 10'000, 1'000'000);
    EXPECT_EQ(tcb.cwnd, cwnd + 1460);

    // RTT so long that diff > beta -> -1 MSS (one adjustment per RTT:
    // jump time forward past the guard).
    cwnd = tcb.cwnd;
    vegas.onAck(tcb, 1460, 40'000, 10'000'000);
    EXPECT_EQ(tcb.cwnd, cwnd - 1460);
}

TEST(Vegas, AdjustsAtMostOncePerRtt)
{
    VegasPolicy vegas;
    Tcb tcb = flowWith(vegas);
    tcb.ccPhase = CcPhase::congestionAvoidance;
    tcb.ssthresh = tcb.cwnd;
    tcb.minRttUs = 10'000;

    vegas.onAck(tcb, 1460, 10'000, 1'000'000);
    std::uint32_t after_first = tcb.cwnd;
    // Burst of ACKs within the same RTT: no further adjustment.
    for (int i = 0; i < 10; ++i)
        vegas.onAck(tcb, 1460, 10'000, 1'000'100);
    EXPECT_EQ(tcb.cwnd, after_first);
}

TEST(Factory, LatenciesMatchThePaper)
{
    // Section 5.4: NewReno 14 cycles, CUBIC 41, Vegas 68.
    EXPECT_EQ(makeCongestionControl("newreno")->processingLatencyCycles(),
              14u);
    EXPECT_EQ(makeCongestionControl("cubic")->processingLatencyCycles(),
              41u);
    EXPECT_EQ(makeCongestionControl("vegas")->processingLatencyCycles(),
              68u);
}

TEST(Factory, UnknownAlgorithmIsFatal)
{
    EXPECT_DEATH(makeCongestionControl("bbr"), "unknown congestion");
}

} // namespace
} // namespace f4t::tcp
