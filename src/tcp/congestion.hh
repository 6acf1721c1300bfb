/**
 * @file
 * Pluggable congestion-control policies — the part of the FPU program
 * users customize (paper Section 4.5).
 *
 * Each policy manipulates the congestion fields of the TCB through a
 * small set of hooks invoked by the shared FPU TCP logic. A policy
 * declares its FPU pipeline latency in cycles; the paper reports
 * NewReno = 14, CUBIC = 41 (cube root), and Vegas = 68 (integer
 * divisions), and F4T's contribution is that this latency does not
 * affect the event processing rate (reproduced in Fig. 15).
 *
 * Policies are stateless objects: all per-flow state lives in the TCB
 * (cwnd, ssthresh, ccPhase, and the algoScratch words), exactly as a
 * hardware FPU program would keep everything in the flow's TCB entry.
 */

#ifndef F4T_TCP_CONGESTION_HH
#define F4T_TCP_CONGESTION_HH

#include <cstdint>
#include <memory>
#include <string>

#include "tcp/tcb.hh"

namespace f4t::tcp
{

class CongestionControl
{
  public:
    virtual ~CongestionControl() = default;

    virtual const char *name() const = 0;

    /** FPU pipeline depth in cycles when this policy is compiled in. */
    virtual unsigned processingLatencyCycles() const = 0;

    /** Initialize congestion state at connection establishment. */
    virtual void onInit(Tcb &tcb) const;

    /**
     * A cumulative ACK advanced snd.una by @p acked_bytes outside fast
     * recovery. @p rtt_us is the latest RTT sample (0 if none).
     */
    virtual void onAck(Tcb &tcb, std::uint32_t acked_bytes,
                       std::uint32_t rtt_us, std::uint64_t now_us) const = 0;

    /** Three duplicate ACKs: entering fast retransmit / recovery. */
    virtual void onEnterRecovery(Tcb &tcb, std::uint64_t now_us) const = 0;

    /** An additional duplicate ACK while already in fast recovery. */
    virtual void onDupAckInRecovery(Tcb &tcb) const;

    /** Partial ACK during NewReno-style recovery. */
    virtual void onPartialAck(Tcb &tcb, std::uint32_t acked_bytes) const;

    /** Recovery completed (snd.una reached the recovery point). */
    virtual void onExitRecovery(Tcb &tcb) const;

    /** Retransmission timeout fired. */
    virtual void onTimeout(Tcb &tcb, std::uint64_t now_us) const;
};

/** TCP NewReno (RFC 6582). FPU latency: 14 cycles. */
class NewRenoPolicy : public CongestionControl
{
  public:
    const char *name() const override { return "newreno"; }
    unsigned processingLatencyCycles() const override { return 14; }

    void onAck(Tcb &tcb, std::uint32_t acked_bytes, std::uint32_t rtt_us,
               std::uint64_t now_us) const override;
    void onEnterRecovery(Tcb &tcb, std::uint64_t now_us) const override;
};

/**
 * CUBIC TCP (RFC 8312), implemented in fixed-point arithmetic with an
 * iterative integer cube root — the way an FPU program with no
 * floating-point unit would compute it. FPU latency: 41 cycles.
 */
class CubicPolicy : public CongestionControl
{
  public:
    const char *name() const override { return "cubic"; }
    unsigned processingLatencyCycles() const override { return 41; }

    void onInit(Tcb &tcb) const override;
    void onAck(Tcb &tcb, std::uint32_t acked_bytes, std::uint32_t rtt_us,
               std::uint64_t now_us) const override;
    void onEnterRecovery(Tcb &tcb, std::uint64_t now_us) const override;
    void onTimeout(Tcb &tcb, std::uint64_t now_us) const override;

    /** Integer cube root (exposed for unit tests). */
    static std::uint64_t cubeRoot(std::uint64_t x);

  private:
    // algoScratch layout.
    static constexpr std::size_t idxWMax = 0;       ///< bytes
    static constexpr std::size_t idxEpochLoUs = 1;  ///< epoch start, low
    static constexpr std::size_t idxEpochHiUs = 2;  ///< epoch start, high
    static constexpr std::size_t idxK = 3;          ///< K in milliseconds
    static constexpr std::size_t idxAckedBytes = 4; ///< since W_est grew
    static constexpr std::size_t idxEstSegments = 5; ///< W_est's growth

    void startEpoch(Tcb &tcb, std::uint64_t now_us) const;
};

/**
 * TCP Vegas: delay-based congestion avoidance using the base-RTT
 * estimate. Uses integer divisions; FPU latency: 68 cycles.
 */
class VegasPolicy : public CongestionControl
{
  public:
    const char *name() const override { return "vegas"; }
    unsigned processingLatencyCycles() const override { return 68; }

    void onAck(Tcb &tcb, std::uint32_t acked_bytes, std::uint32_t rtt_us,
               std::uint64_t now_us) const override;
    void onEnterRecovery(Tcb &tcb, std::uint64_t now_us) const override;

  private:
    // algoScratch layout.
    static constexpr std::size_t idxNextAdjustLoUs = 0;
    static constexpr std::size_t idxNextAdjustHiUs = 1;

    static constexpr std::uint32_t alphaPackets = 2;
    static constexpr std::uint32_t betaPackets = 4;
};

/** Factory by name ("newreno", "cubic", "vegas"); fatal on unknown. */
std::unique_ptr<CongestionControl>
makeCongestionControl(const std::string &name);

} // namespace f4t::tcp

#endif // F4T_TCP_CONGESTION_HH
