/**
 * @file
 * The Transmission Control Block (TCB) and the accumulated event
 * record — the two halves of F4T's dual-memory architecture
 * (paper Sections 4.2.1 and 4.2.3).
 *
 * The TCB table (FPU-written) holds the state as of the last completed
 * FPU pass. The event table (event-handler-written) holds newer values
 * for the handler-owned fields together with per-field valid bits.
 * merge() constructs the up-to-date TCB the way the TCB manager does:
 * event-table fields with their valid bit set override the TCB-table
 * copy; everything else comes from the TCB table.
 *
 * Handler-owned fields are exactly the cumulative TCP quantities the
 * paper identifies as overwritable without loss: the user send request
 * pointer (req), the user read pointer, the peer's cumulative ACK, the
 * in-order reassembled receive boundary, the peer's advertised window,
 * OR-accumulated flags, and the single special case — the duplicate-ACK
 * increment counter.
 */

#ifndef F4T_TCP_TCB_HH
#define F4T_TCP_TCB_HH

#include <cstdint>
#include <string>

#include "net/four_tuple.hh"
#include "net/seq.hh"
#include "sim/types.hh"

namespace f4t::tcp
{

/** Globally unique flow identifier (used across FPCs and DRAM). */
using FlowId = std::uint32_t;

constexpr FlowId invalidFlowId = ~FlowId{0};

// --- TCP protocol constants --------------------------------------------
// Fixed for every experiment, as FtEngine fixes them in hardware. The
// FPU program, the packet generator and SoftTcpStack read them; FtEngine
// and the stalling engine get them through Tcb's defaults below.

/** Maximum segment size (a 1500 B MTU less 40 B of headers). */
constexpr std::uint16_t mssBytes = 1460;
/** Initial retransmission timeout, before any RTT sample (200 ms). */
constexpr std::uint32_t initialRtoUs = 200'000;
/** RTO floor (5 ms). */
constexpr std::uint32_t minRtoUs = 5'000;
/** RTO ceiling (60 s). */
constexpr std::uint32_t maxRtoUs = 60'000'000;
/** Zero-window probe period. */
constexpr std::uint32_t probeIntervalUs = 5'000;
/** Duplicate ACKs that trigger fast retransmit. */
constexpr std::uint8_t dupAckThreshold = 3;
/** TIME_WAIT: a shortened 2*MSL for simulation. */
constexpr std::uint32_t timeWaitUs = 10'000;

/** TCP connection states (RFC 793 subset implemented by FtEngine). */
enum class ConnState : std::uint8_t
{
    closed,
    listen,
    synSent,
    synRcvd,
    established,
    finWait1,
    finWait2,
    closing,
    timeWait,
    closeWait,
    lastAck,
};

const char *toString(ConnState state);

/** Congestion-control phase shared by all algorithms. */
enum class CcPhase : std::uint8_t
{
    slowStart,
    congestionAvoidance,
    fastRecovery,
};

/** Accumulated flag bits in the event record (OR semantics). */
struct EventFlags
{
    static constexpr std::uint32_t synSeen = 1u << 0;
    static constexpr std::uint32_t synAckSeen = 1u << 1;
    static constexpr std::uint32_t finSeen = 1u << 2;
    static constexpr std::uint32_t rstSeen = 1u << 3;
    static constexpr std::uint32_t ackSeen = 1u << 4;
    static constexpr std::uint32_t rtxTimeout = 1u << 5;
    static constexpr std::uint32_t probeTimeout = 1u << 6;
    static constexpr std::uint32_t delAckTimeout = 1u << 7;
    static constexpr std::uint32_t openRequest = 1u << 8;
    static constexpr std::uint32_t closeRequest = 1u << 9;
    static constexpr std::uint32_t timeWaitTimeout = 1u << 10;
    static constexpr std::uint32_t dataArrived = 1u << 11;
};

/** Per-field valid bits of the event record. */
struct EventValid
{
    static constexpr std::uint32_t req = 1u << 0;
    static constexpr std::uint32_t userRead = 1u << 1;
    static constexpr std::uint32_t peerAck = 1u << 2;
    static constexpr std::uint32_t rcvUpTo = 1u << 3;
    static constexpr std::uint32_t peerWnd = 1u << 4;
    static constexpr std::uint32_t peerIsn = 1u << 5;
    static constexpr std::uint32_t flags = 1u << 6;
    static constexpr std::uint32_t dupAck = 1u << 7;
};

/**
 * The event-table entry: handler-owned cumulative fields plus valid
 * bits. A fixed-size structure, as in the hardware.
 */
struct EventRecord
{
    std::uint32_t validMask = 0;

    net::SeqNum req = 0;      ///< user send boundary (absolute seq)
    net::SeqNum userRead = 0; ///< user consume boundary (absolute seq)
    net::SeqNum peerAck = 0;  ///< peer's cumulative ACK
    net::SeqNum rcvUpTo = 0;  ///< in-order reassembled receive boundary
    std::uint32_t peerWnd = 0;
    net::SeqNum peerIsn = 0;
    std::uint32_t flags = 0;   ///< EventFlags, OR-accumulated
    std::uint8_t dupAckIncr = 0;

    bool empty() const { return validMask == 0; }

    void
    clear()
    {
        *this = EventRecord{};
    }
};

/** Scratch words available to pluggable congestion algorithms. */
constexpr std::size_t algoScratchWords = 8;

/**
 * The full per-flow TCB as stored in the TCB table / DRAM.
 *
 * The wire footprint charged for DRAM transfers is tcbWireBytes; the
 * structure below is the behavioural content.
 */
struct Tcb
{
    // --- identity -----------------------------------------------------
    FlowId flowId = invalidFlowId;
    net::FourTuple tuple;
    bool passiveOpen = false;

    // --- connection state ----------------------------------------------
    ConnState state = ConnState::closed;

    // --- transmit-side cumulative pointers (absolute sequence space) ---
    net::SeqNum iss = 0;     ///< initial send sequence number
    net::SeqNum req = 0;     ///< user has requested send up to here
    net::SeqNum sndNxt = 0;  ///< next sequence number to transmit
    net::SeqNum sndUna = 0;  ///< oldest unacknowledged sequence number
    std::uint32_t sndWnd = 0;///< peer's advertised window (bytes)
    net::SeqNum finSeq = 0;  ///< sequence number consumed by our FIN
    bool finSent = false;
    bool closeRequested = false; ///< close() seen; FIN after drain

    /**
     * FPU-owned mirrors of cumulative inputs, recording the value the
     * FPU acted on during its last pass. Deltas against the merged
     * (handler-updated) values tell a stateless pass what is new.
     */
    net::SeqNum sndUnaProcessed = 0;
    std::uint8_t dupAcksSeen = 0;
    net::SeqNum lastAckSent = 0; ///< rcv boundary covered by last ACK

    // --- receive-side cumulative pointers --------------------------------
    net::SeqNum irs = 0;      ///< peer's initial sequence number
    net::SeqNum rcvNxt = 0;   ///< next in-order byte expected
    net::SeqNum userRead = 0; ///< application has consumed up to here
    std::uint32_t rcvBufBytes = 512 * 1024;
    bool peerFinSeen = false;
    net::SeqNum lastWndAdvertised = 0;
    bool ackPending = false;  ///< received data not yet acknowledged

    // --- congestion control ----------------------------------------------
    CcPhase ccPhase = CcPhase::slowStart;
    std::uint32_t cwnd = 0;       ///< bytes
    std::uint32_t ssthresh = 0;   ///< bytes
    std::uint8_t dupAcks = 0;
    net::SeqNum recover = 0;      ///< NewReno recovery point
    /** RTO go-back-N in progress: cumulative ACKs below `recover`
     *  each retransmit the next hole (multi-segment tail loss would
     *  otherwise crawl at one segment per backed-off RTO). */
    bool rtoRecovery = false;
    std::uint16_t mss = mssBytes;
    std::uint32_t algoScratch[algoScratchWords] = {};

    // --- RTT estimation (RFC 6298), microsecond granularity -------------
    std::uint32_t srttUs = 0;
    std::uint32_t rttvarUs = 0;
    std::uint32_t rtoUs = initialRtoUs;
    bool rttSampling = false;
    net::SeqNum rttSampleSeq = 0;
    std::uint64_t rttSampleStartUs = 0;
    std::uint32_t lastRttUs = 0;
    std::uint32_t minRttUs = 0;   ///< base RTT (Vegas)

    // --- timers (deadlines in absolute microseconds; 0 = unarmed) -------
    std::uint64_t rtxDeadlineUs = 0;
    std::uint64_t probeDeadlineUs = 0;
    std::uint64_t timeWaitDeadlineUs = 0;
    std::uint32_t rtxBackoff = 0; ///< consecutive RTO expirations

    // --- transient event-delivery fields ---------------------------------
    /**
     * EventFlags delivered by the most recent merge(); the FPU consumes
     * them during processing and writes back zero. Never persisted with
     * a nonzero value by a correct FPU program.
     */
    std::uint32_t pendingFlags = 0;

    // --- engine bookkeeping ----------------------------------------------
    bool evictRequested = false;
    std::uint64_t lastActiveCycle = 0;

    // --- host notification watermarks ------------------------------------
    net::SeqNum lastAckNotified = 0;
    net::SeqNum lastRcvNotified = 0;

    /** Bytes in flight (sent but unacknowledged). */
    std::uint32_t
    bytesInFlight() const
    {
        return static_cast<std::uint32_t>(net::seqDiff(sndNxt, sndUna));
    }

    /** Currently usable send window: min(cwnd, peer window). */
    std::uint32_t
    effectiveWindow() const
    {
        return cwnd < sndWnd ? cwnd : sndWnd;
    }

    /** Receive window to advertise, from buffer occupancy. */
    std::uint32_t
    receiveWindow() const
    {
        std::uint32_t used =
            static_cast<std::uint32_t>(net::seqDiff(rcvNxt, userRead));
        return used >= rcvBufBytes ? 0 : rcvBufBytes - used;
    }
};

/** DRAM footprint of one TCB, as charged by the memory model. */
constexpr std::size_t tcbWireBytes = 128;

/**
 * Construct the up-to-date TCB exactly as the TCB manager does:
 * event-record fields with valid bits override; flags OR in; the
 * dup-ACK increment adds to the stored count.
 */
Tcb merge(const Tcb &stored, const EventRecord &events);

/** In-place merge for callers that already copied the stored TCB
 *  into its destination (saves a 240 B copy on the issue path). */
void mergeInto(Tcb &tcb, const EventRecord &events);

/** Kinds of per-flow timeouts generated by the timer wheel. */
enum class TimeoutKind : std::uint8_t
{
    retransmit,
    probe,
    delayedAck,
    timeWait,
};

/** Event types routed by the scheduler (paper's three classes). */
enum class TcpEventType : std::uint8_t
{
    userSend,    ///< send() advanced the request pointer
    userRecv,    ///< recv() advanced the read pointer
    userConnect, ///< active open request
    userClose,   ///< close() request
    rxSegment,   ///< pre-processed received packet
    timeout,     ///< timer expiry
};

const char *toString(TcpEventType type);

/**
 * A TCP event as it flows from the host interface / RX parser / timers
 * through the scheduler into an FPC or the memory manager.
 */
/**
 * A TCP event on the scheduler → FPC hot path. This is deliberately a
 * flat tagged union, not an Event subclass: `type` is the kind tag and
 * the payload fields below are shared across kinds (a kind reads only
 * its own fields). Consumers dispatch with a switch on `type` — see
 * Fpc::handleEvent and accumulateEvent — and the whole struct packs
 * into 32 bytes, so scheduler rings and FPC input FIFOs move it by
 * value with no indirection, no vtable, and no heap traffic
 * (DESIGN.md §17).
 */
struct TcpEvent
{
    FlowId flow = invalidFlowId;
    TcpEventType type = TcpEventType::rxSegment;

    // userSend / userRecv payload: the new cumulative pointer.
    net::SeqNum pointer = 0;

    // rxSegment payload (pre-processed by the RX parser).
    net::SeqNum peerAck = 0;
    std::uint32_t peerWnd = 0;
    net::SeqNum rcvUpTo = 0;
    net::SeqNum peerIsn = 0;
    std::uint8_t tcpFlags = 0; ///< raw TCP header flags
    bool isDupAck = false;
    bool dataArrived = false;  ///< any payload accepted into the buffer

    // timeout payload.
    TimeoutKind timeoutKind = TimeoutKind::retransmit;

    /**
     * Whether two events of the same flow can coalesce without losing
     * information (Section 4.4.1): duplicate ACKs never coalesce (the
     * count matters), and segment events only coalesce when cumulative
     * state is monotone (no reordering evidence).
     */
    static bool canCoalesce(const TcpEvent &earlier, const TcpEvent &later);

    /** Merge @p later into @p earlier. Caller checked canCoalesce. */
    static void coalesce(TcpEvent &earlier, const TcpEvent &later);
};

/**
 * The event handler's accumulation step (Section 4.2.1): fold @p event
 * into @p record by overwriting cumulative fields, OR-ing flags, and
 * incrementing the duplicate-ACK counter (the single-cycle RMW case).
 * @p stored is the TCB-table entry, needed for duplicate-ACK detection
 * against the merged view. Shared verbatim by the FPC event handler
 * and the memory manager (which "handles events like the event
 * handler", Section 4.3.1).
 *
 * @return true when the event was counted as a duplicate ACK.
 */
bool accumulateEvent(EventRecord &record, const Tcb &stored,
                     const TcpEvent &event);

/**
 * Sequence-space sanity for a TCB at a module boundary (FPU write-back,
 * DRAM event accumulation): once a connection is synchronized, the
 * cumulative pointers must satisfy sndUna <= sndNxt and
 * userRead <= rcvNxt. Panics via F4T_CHECK; a no-op without
 * F4T_ENABLE_CHECKS. @p where names the call site for the report.
 */
void checkTcbInvariants(const Tcb &tcb, const char *where);

/** True for states at or past connection synchronization, where the
 *  cumulative-pointer invariants of checkTcbInvariants() apply. */
constexpr bool
stateSynchronized(ConnState state)
{
    return state == ConnState::established ||
           state == ConnState::finWait1 ||
           state == ConnState::finWait2 ||
           state == ConnState::closing ||
           state == ConnState::timeWait ||
           state == ConnState::closeWait ||
           state == ConnState::lastAck;
}

} // namespace f4t::tcp

#endif // F4T_TCP_TCB_HH
