/**
 * @file
 * The FPU program: stateless TCP processing (paper Section 4.2.2).
 *
 * The flow processing unit receives a merged, up-to-date TCB from the
 * TCB manager and performs one full TCP pass over it: connection state
 * machine, congestion/flow control send decision, ACK generation,
 * window advertisement, retransmission, and probing. The pass is a
 * pure function of (TCB, time): all outputs are the updated TCB plus a
 * list of actions for the data path, the timer wheel, and the host
 * interface. This statelessness is what lets the hardware FPU be fully
 * pipelined with arbitrary latency — and what lets users program it in
 * HLS C++ with no hazards to reason about.
 */

#ifndef F4T_TCP_FPU_PROGRAM_HH
#define F4T_TCP_FPU_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "tcp/congestion.hh"
#include "tcp/tcb.hh"

namespace f4t::tcp
{

/** A data-transfer request to the packet generator. */
struct SegmentRequest
{
    FlowId flow = invalidFlowId;
    net::SeqNum seq = 0;
    std::uint32_t length = 0;
    net::SeqNum ack = 0;       ///< ACK number carried by the segments
    std::uint32_t window = 0;  ///< receive window carried
    bool fin = false;          ///< last segment carries FIN
    bool retransmission = false;
};

/** A pure control packet (no payload fetched from the data buffer). */
struct ControlRequest
{
    FlowId flow = invalidFlowId;
    std::uint8_t flags = 0;    ///< TCP flag bits
    net::SeqNum seq = 0;
    net::SeqNum ack = 0;
    std::uint32_t window = 0;
    std::uint16_t mssOption = 0;
    bool windowProbe = false;  ///< carry one byte of probe data
};

/** Completion notifications for the host interface. */
struct HostNotification
{
    enum class Kind : std::uint8_t
    {
        connected,  ///< handshake finished (active or passive open)
        acked,      ///< snd.una advanced; pointer = new boundary
        received,   ///< in-order data available; pointer = new boundary
        peerClosed, ///< FIN received (EOF)
        closed,     ///< connection fully closed, flow recycled
        reset,      ///< connection aborted (RST or handshake failure)
    };

    FlowId flow = invalidFlowId;
    Kind kind = Kind::acked;
    net::SeqNum pointer = 0;
};

/** Timer (re)programming requests. */
struct TimerRequest
{
    FlowId flow = invalidFlowId;
    TimeoutKind kind = TimeoutKind::retransmit;
    /** Absolute deadline in microseconds; 0 cancels the timer. */
    std::uint64_t deadlineUs = 0;
};

/** Everything one FPU pass produces besides the updated TCB. */
struct FpuActions
{
    std::vector<SegmentRequest> segments;
    std::vector<ControlRequest> controls;
    std::vector<HostNotification> notifications;
    std::vector<TimerRequest> timers;
    /** The flow finished and its resources can be recycled. */
    bool releaseFlow = false;

    void
    clear()
    {
        segments.clear();
        controls.clear();
        notifications.clear();
        timers.clear();
        releaseFlow = false;
    }

    bool
    empty() const
    {
        return segments.empty() && controls.empty() &&
               notifications.empty() && timers.empty() && !releaseFlow;
    }
};

/** Tunables of the shared TCP logic (the fixed ones are the protocol
 *  constants in tcp/tcb.hh). */
struct FpuConfig
{
    /** TIME_WAIT length; tests shorten it to recycle flow IDs. */
    std::uint32_t timeWaitUs = tcp::timeWaitUs;
};

/**
 * The FPU program: shared TCP logic parameterized by a congestion
 * policy. Instances are immutable and shared by all FPCs.
 */
class FpuProgram
{
  public:
    FpuProgram(const CongestionControl &cc, FpuConfig config = {})
        : cc_(cc), config_(config)
    {}

    /** Total FPU pipeline latency in cycles for this program. */
    unsigned latencyCycles() const { return cc_.processingLatencyCycles(); }

    const CongestionControl &congestion() const { return cc_; }

    /**
     * One full TCP pass. @p tcb is the merged, up-to-date TCB (modified
     * in place to its post-pass value); @p now_us is the current time.
     */
    void process(Tcb &tcb, std::uint64_t now_us, FpuActions &actions) const;

    /** Deterministic initial send sequence number for a flow. */
    static net::SeqNum initialSequence(FlowId flow);

    /**
     * The memory manager's check logic (Section 4.3.1): would an FPU
     * pass over this merged TCB do anything — send or retransmit data,
     * emit an ACK or probe, progress the connection state machine, or
     * notify the host? Flows for which this is false can keep waiting
     * in DRAM, accumulating events.
     */
    static bool tcbNeedsProcessing(const Tcb &merged);

  private:
    void processFlags(Tcb &tcb, std::uint32_t flags, std::uint64_t now_us,
                      FpuActions &actions) const;
    void processAck(Tcb &tcb, std::uint64_t now_us,
                    FpuActions &actions) const;
    void sendData(Tcb &tcb, std::uint64_t now_us, FpuActions &actions) const;
    void sendAckIfNeeded(Tcb &tcb, bool sent_data, bool force_ack,
                         FpuActions &actions) const;
    void notifyHost(Tcb &tcb, FpuActions &actions) const;
    void manageTimers(Tcb &tcb, std::uint64_t now_us,
                      FpuActions &actions) const;

    void enterEstablished(Tcb &tcb, FpuActions &actions) const;
    void maybeSendFin(Tcb &tcb, FpuActions &actions) const;
    void handleRto(Tcb &tcb, std::uint64_t now_us,
                   FpuActions &actions) const;
    void updateRtt(Tcb &tcb, std::uint64_t now_us) const;
    void armRtx(Tcb &tcb, std::uint64_t now_us, FpuActions &actions) const;
    void cancelRtx(Tcb &tcb, FpuActions &actions) const;

    const CongestionControl &cc_;
    FpuConfig config_;
};

} // namespace f4t::tcp

#endif // F4T_TCP_FPU_PROGRAM_HH
