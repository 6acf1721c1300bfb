#include "congestion.hh"

#include "sim/logging.hh"

namespace f4t::tcp
{

namespace
{

/** RFC 6928 initial window: min(10*MSS, max(2*MSS, 14600)). */
std::uint32_t
initialWindow(const Tcb &tcb)
{
    return 10u * tcb.mss;
}

std::uint32_t
halfFlight(const Tcb &tcb)
{
    std::uint32_t flight = tcb.bytesInFlight();
    std::uint32_t half = flight / 2;
    std::uint32_t floor = 2u * tcb.mss;
    return half > floor ? half : floor;
}

} // namespace

void
CongestionControl::onInit(Tcb &tcb) const
{
    tcb.cwnd = initialWindow(tcb);
    tcb.ssthresh = 0x7fffffff;
    tcb.ccPhase = CcPhase::slowStart;
    tcb.dupAcks = 0;
    for (auto &w : tcb.algoScratch)
        w = 0;
}

void
CongestionControl::onDupAckInRecovery(Tcb &tcb) const
{
    // Window inflation: each duplicate ACK signals a departed segment.
    tcb.cwnd += tcb.mss;
}

void
CongestionControl::onPartialAck(Tcb &tcb, std::uint32_t acked_bytes) const
{
    // RFC 6582: deflate by the amount acked, then add back one MSS.
    std::uint32_t deflate = acked_bytes;
    if (deflate >= tcb.cwnd)
        tcb.cwnd = tcb.mss;
    else
        tcb.cwnd -= deflate;
    tcb.cwnd += tcb.mss;
}

void
CongestionControl::onExitRecovery(Tcb &tcb) const
{
    // Deflate the window back to ssthresh.
    tcb.cwnd = tcb.ssthresh;
    tcb.ccPhase = CcPhase::congestionAvoidance;
    tcb.dupAcks = 0;
}

void
CongestionControl::onTimeout(Tcb &tcb, std::uint64_t /* now_us */) const
{
    tcb.ssthresh = halfFlight(tcb);
    tcb.cwnd = tcb.mss;
    tcb.ccPhase = CcPhase::slowStart;
    tcb.dupAcks = 0;
}

// --------------------------------------------------------------------
// NewReno
// --------------------------------------------------------------------

void
NewRenoPolicy::onAck(Tcb &tcb, std::uint32_t acked_bytes,
                     std::uint32_t /* rtt_us */,
                     std::uint64_t /* now_us */) const
{
    // Byte counting (RFC 3465): one FPU pass may consume an arbitrary
    // batch of accumulated ACKs, so growth must depend on the bytes
    // acknowledged, not on the number of passes — this is what makes
    // window evolution independent of event batching.
    if (tcb.ccPhase == CcPhase::slowStart) {
        tcb.cwnd += acked_bytes;
        if (tcb.cwnd >= tcb.ssthresh)
            tcb.ccPhase = CcPhase::congestionAvoidance;
    } else {
        // Additive increase: ~one MSS per window's worth of ACKs.
        std::uint32_t inc = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(tcb.mss) * acked_bytes /
            (tcb.cwnd ? tcb.cwnd : 1));
        tcb.cwnd += inc > 0 ? inc : 1;
    }
}

void
NewRenoPolicy::onEnterRecovery(Tcb &tcb, std::uint64_t /* now_us */) const
{
    tcb.ssthresh = halfFlight(tcb);
    // Inflate by the three duplicate ACKs that triggered recovery.
    tcb.cwnd = tcb.ssthresh + 3u * tcb.mss;
    tcb.ccPhase = CcPhase::fastRecovery;
}

// --------------------------------------------------------------------
// CUBIC (fixed point, RFC 8312)
// --------------------------------------------------------------------

namespace
{
// beta_cubic = 0.7 as 717/1024; C = 0.4 as 410/1024.
constexpr std::uint64_t cubicBetaScaled = 717;
constexpr std::uint64_t cubicCScaled = 410;
constexpr std::uint64_t cubicScale = 1024;
} // namespace

std::uint64_t
CubicPolicy::cubeRoot(std::uint64_t x)
{
    if (x == 0)
        return 0;
    // Initial estimate from the bit length, then Newton iterations:
    // r <- (2r + x / r^2) / 3. A handful of iterations converge for
    // 64-bit inputs; hardware would unroll the same loop.
    int bits = 64 - __builtin_clzll(x);
    std::uint64_t r = 1ULL << ((bits + 2) / 3);
    for (int i = 0; i < 8; ++i) {
        std::uint64_t r2 = r * r;
        if (r2 == 0)
            break;
        std::uint64_t next = (2 * r + x / r2) / 3;
        if (next == r)
            break;
        r = next;
    }
    // Final correction to the floor value. Cubes near the top of the
    // 64-bit range overflow uint64, so compare in 128 bits — the
    // hardware equivalent is a widened comparator.
    auto cube = [](std::uint64_t v) {
        return static_cast<unsigned __int128>(v) * v * v;
    };
    while (r > 0 && cube(r) > x)
        --r;
    while (cube(r + 1) <= x)
        ++r;
    return r;
}

void
CubicPolicy::onInit(Tcb &tcb) const
{
    CongestionControl::onInit(tcb);
}

void
CubicPolicy::startEpoch(Tcb &tcb, std::uint64_t now_us) const
{
    tcb.algoScratch[idxEpochLoUs] = static_cast<std::uint32_t>(now_us);
    tcb.algoScratch[idxEpochHiUs] = static_cast<std::uint32_t>(now_us >> 32);

    std::uint64_t w_max = tcb.algoScratch[idxWMax];
    std::uint64_t cwnd = tcb.cwnd;
    // K = cbrt((W_max - cwnd) / C) in seconds; compute in milliseconds:
    // K_ms = cbrt((W_max - cwnd) * 1024 / (C_scaled * mss) * 1e9) .
    std::uint64_t k_ms = 0;
    if (w_max > cwnd) {
        std::uint64_t delta_segments = (w_max - cwnd) / tcb.mss;
        // K^3 [s^3] = delta / C  ->  K_ms^3 = delta * 1e9 / C.
        std::uint64_t cube =
            delta_segments * cubicScale * 1'000'000'000ULL / cubicCScaled;
        k_ms = cubeRoot(cube);
    }
    tcb.algoScratch[idxK] = static_cast<std::uint32_t>(k_ms);
    tcb.algoScratch[idxAckedBytes] = 0;
    tcb.algoScratch[idxEstSegments] = 0;
}

void
CubicPolicy::onAck(Tcb &tcb, std::uint32_t acked_bytes,
                   std::uint32_t /* rtt_us */, std::uint64_t now_us) const
{
    if (tcb.ccPhase == CcPhase::slowStart) {
        tcb.cwnd += acked_bytes; // byte counting; see NewReno note
        if (tcb.cwnd >= tcb.ssthresh) {
            tcb.ccPhase = CcPhase::congestionAvoidance;
            if (tcb.algoScratch[idxWMax] == 0)
                tcb.algoScratch[idxWMax] = tcb.cwnd;
            startEpoch(tcb, now_us);
        }
        return;
    }

    std::uint64_t epoch_us =
        (static_cast<std::uint64_t>(tcb.algoScratch[idxEpochHiUs]) << 32) |
        tcb.algoScratch[idxEpochLoUs];
    if (epoch_us == 0) {
        if (tcb.algoScratch[idxWMax] == 0)
            tcb.algoScratch[idxWMax] = tcb.cwnd;
        startEpoch(tcb, now_us);
        epoch_us = now_us;
    }

    // Elapsed time in milliseconds since the epoch started.
    std::uint64_t t_ms = (now_us - epoch_us) / 1000;
    std::uint64_t k_ms = tcb.algoScratch[idxK];
    std::uint64_t w_max = tcb.algoScratch[idxWMax];

    // W_cubic(t) = C * (t - K)^3 + W_max, computed in segments with
    // millisecond time: C * ((t-K)/1000)^3 * mss + W_max.
    std::int64_t d_ms = static_cast<std::int64_t>(t_ms) -
                        static_cast<std::int64_t>(k_ms);
    std::int64_t d3 = d_ms * d_ms * d_ms; // |d| < ~2e6 ms, fits 64-bit
    std::int64_t delta_segments =
        static_cast<std::int64_t>(cubicCScaled) * d3 /
        (static_cast<std::int64_t>(cubicScale) * 1'000'000'000LL);
    std::int64_t target = static_cast<std::int64_t>(w_max) +
                          delta_segments * tcb.mss;
    if (target < static_cast<std::int64_t>(2u * tcb.mss))
        target = 2u * tcb.mss;

    // TCP-friendly region (RFC 8312 §4.2): W_est grows 3(1-β)/(1+β)
    // ≈ 0.53 segments per RTT, so one segment per cwnd·(1+β)/(3(1-β))
    // bytes ACKed, counted across ACKs.
    std::uint64_t per_segment =
        std::uint64_t{tcb.cwnd} * (cubicScale + cubicBetaScaled) /
        (3 * (cubicScale - cubicBetaScaled));
    if (per_segment == 0)
        per_segment = 1;
    std::uint64_t acked = tcb.algoScratch[idxAckedBytes] + acked_bytes;
    tcb.algoScratch[idxEstSegments] +=
        static_cast<std::uint32_t>(acked / per_segment);
    tcb.algoScratch[idxAckedBytes] =
        static_cast<std::uint32_t>(acked % per_segment);
    std::uint64_t w_est =
        w_max * cubicBetaScaled / cubicScale +
        std::uint64_t{tcb.algoScratch[idxEstSegments]} * tcb.mss;
    if (target < static_cast<std::int64_t>(w_est))
        target = static_cast<std::int64_t>(w_est);

    if (target > static_cast<std::int64_t>(tcb.cwnd)) {
        // Approach the target over roughly one RTT of ACKs.
        std::uint64_t gap = static_cast<std::uint64_t>(target) - tcb.cwnd;
        std::uint32_t inc = static_cast<std::uint32_t>(
            gap * acked_bytes / (tcb.cwnd ? tcb.cwnd : 1));
        if (inc == 0)
            inc = 1;
        tcb.cwnd += inc;
    } else {
        // In the concave plateau: minimal growth keeps the ACK clock.
        tcb.cwnd += acked_bytes / 100 + 1;
    }
}

void
CubicPolicy::onEnterRecovery(Tcb &tcb, std::uint64_t now_us) const
{
    // Fast convergence: remember a reduced W_max when the loss happened
    // below the previous W_max.
    std::uint64_t prev_w_max = tcb.algoScratch[idxWMax];
    if (tcb.cwnd < prev_w_max) {
        tcb.algoScratch[idxWMax] = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(tcb.cwnd) *
            (cubicScale + cubicBetaScaled) / (2 * cubicScale));
    } else {
        tcb.algoScratch[idxWMax] = tcb.cwnd;
    }

    std::uint32_t reduced = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(tcb.cwnd) * cubicBetaScaled /
        cubicScale);
    std::uint32_t floor = 2u * tcb.mss;
    tcb.ssthresh = reduced > floor ? reduced : floor;
    // K comes from the reduced window, W_max·(1-β) below W_max (RFC
    // 8312 §4.1), so the epoch starts before the recovery inflation.
    tcb.cwnd = tcb.ssthresh;
    startEpoch(tcb, now_us);
    tcb.cwnd = tcb.ssthresh + 3u * tcb.mss;
    tcb.ccPhase = CcPhase::fastRecovery;
}

void
CubicPolicy::onTimeout(Tcb &tcb, std::uint64_t now_us) const
{
    tcb.algoScratch[idxWMax] = tcb.cwnd;
    CongestionControl::onTimeout(tcb, now_us);
    startEpoch(tcb, now_us);
}

// --------------------------------------------------------------------
// Vegas
// --------------------------------------------------------------------

void
VegasPolicy::onAck(Tcb &tcb, std::uint32_t acked_bytes,
                   std::uint32_t rtt_us, std::uint64_t now_us) const
{
    if (tcb.ccPhase == CcPhase::slowStart) {
        tcb.cwnd += acked_bytes; // byte counting; see NewReno note
        if (tcb.cwnd >= tcb.ssthresh)
            tcb.ccPhase = CcPhase::congestionAvoidance;
        return;
    }

    if (rtt_us == 0 || tcb.minRttUs == 0)
        return;

    // Adjust once per RTT: the next adjustment time is kept in scratch.
    std::uint64_t next_adjust =
        (static_cast<std::uint64_t>(tcb.algoScratch[idxNextAdjustHiUs])
         << 32) |
        tcb.algoScratch[idxNextAdjustLoUs];
    if (now_us < next_adjust)
        return;
    std::uint64_t after = now_us + rtt_us;
    tcb.algoScratch[idxNextAdjustLoUs] = static_cast<std::uint32_t>(after);
    tcb.algoScratch[idxNextAdjustHiUs] =
        static_cast<std::uint32_t>(after >> 32);

    // expected = cwnd / baseRTT, actual = cwnd / RTT; the difference in
    // queued packets is diff = (expected - actual) * baseRTT. All
    // integer divisions — the operations that cost the FPU 68 cycles.
    std::uint64_t cwnd_segments = tcb.cwnd / tcb.mss;
    if (cwnd_segments == 0)
        cwnd_segments = 1;
    std::uint64_t expected = cwnd_segments * 1000000ULL / tcb.minRttUs;
    std::uint64_t actual = cwnd_segments * 1000000ULL / rtt_us;
    std::uint64_t diff_packets =
        (expected - actual) * tcb.minRttUs / 1000000ULL;

    if (diff_packets < alphaPackets) {
        tcb.cwnd += tcb.mss;
    } else if (diff_packets > betaPackets) {
        if (tcb.cwnd > 2u * tcb.mss)
            tcb.cwnd -= tcb.mss;
    }
    // Between alpha and beta: hold.
}

void
VegasPolicy::onEnterRecovery(Tcb &tcb, std::uint64_t /* now_us */) const
{
    tcb.ssthresh = halfFlight(tcb);
    tcb.cwnd = tcb.ssthresh + 3u * tcb.mss;
    tcb.ccPhase = CcPhase::fastRecovery;
}

std::unique_ptr<CongestionControl>
makeCongestionControl(const std::string &name)
{
    if (name == "newreno")
        return std::make_unique<NewRenoPolicy>();
    if (name == "cubic")
        return std::make_unique<CubicPolicy>();
    if (name == "vegas")
        return std::make_unique<VegasPolicy>();
    f4t_fatal("unknown congestion control algorithm '%s'", name.c_str());
}

} // namespace f4t::tcp
