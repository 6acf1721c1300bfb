/**
 * @file
 * Causal (Dapper-style) request tracing: a per-request trace context,
 * allocated when the application hands a send to the F4T library and
 * carried — as a 4-byte ctrace::Token riding inside host Commands,
 * TcpEvents, and Packets — through every stage hand-off of the data
 * path, down one host's stack, over the wire, and back up the peer's.
 *
 * The stage taxonomy (one span per stage traversal):
 *
 *   appQueue  library send()           -> runtime submit
 *   doorbell  SQ entry + MMIO ring     -> host-interface fetch start
 *   pcie      command DMA              (pure service: start -> done)
 *   fpcQueue  engine event submit      -> FPC absorbs the event
 *   fpcExec   absorbed, waiting issue  -> FPU pass writes back
 *   wire      packet-generator enqueue -> arrival at the peer MAC
 *   rxParse   RX pipeline              (synchronous today: 0-width)
 *   upcall    completion posted        -> library delivers to the app
 *
 * Each span records begin / optional service-begin / end ticks, so
 * every stage splits into queueing (waiting for the resource) and
 * service (using it). A request traverses fpcQueue/fpcExec twice (once
 * per host) and may traverse wire several times (retransmissions
 * re-enter the stage; the superseded span is kept in the tree but not
 * sampled into the latency histograms).
 *
 * Event coalescing, FPU-record accumulation, and FPC<->DRAM migration
 * merge many requests into one hardware operation; tokens for merged
 * requests park in ctrace::TokenSet members on the FPC slot, the
 * issued FPU job, and the MigratingTcb, so spans survive a mid-request
 * connection migration. Where a token is physically dropped (event
 * coalescing keeps only the survivor's), completion is still observed
 * through cumulative-offset coverage: any posted offset >= a request's
 * target completes it.
 *
 * Zero-cost contract: all call sites are guarded with
 * `if constexpr (sim::trace::compiledIn)`; under F4T_ENABLE_TRACE=OFF
 * (the release preset) the tokens are empty structs and no tracer call
 * survives compilation.
 */

#ifndef F4T_SIM_CAUSAL_TRACE_HH
#define F4T_SIM_CAUSAL_TRACE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/trace_token.hh"
#include "sim/types.hh"

namespace f4t::sim::ctrace
{

enum class Stage : std::uint8_t
{
    appQueue,
    doorbell,
    pcie,
    fpcQueue,
    fpcExec,
    wire,
    rxParse,
    upcall,
    nStages
};

constexpr std::size_t numStages = static_cast<std::size_t>(Stage::nStages);

const char *stageName(Stage stage);

/** One tick-stamped stage traversal. */
struct Span
{
    Stage stage;
    Tick begin = 0;
    Tick serviceBegin = 0; ///< valid iff serviceSet
    Tick end = 0;
    bool serviceSet = false;
    bool open = true;
    /** Superseded by a retransmission / left open at abort: kept in the
     *  tree for inspection but not sampled into the histograms. */
    bool abandoned = false;

    Tick duration() const { return end - begin; }
    Tick queueTime() const { return serviceSet ? serviceBegin - begin : 0; }
    Tick serviceTime() const
    {
        return serviceSet ? end - serviceBegin : end - begin;
    }
};

/** One traced request: identity, routing keys, and its span tree. */
struct Request
{
    std::uint32_t id = 0;

    const void *senderDomain = nullptr;
    std::uint32_t senderFlow = 0;
    /** Cumulative stream offset of the request's last byte (u64, from
     *  the library's send buffer — never wraps). */
    std::uint64_t targetOffset = 0;
    /** The same byte as a wire sequence number (u32, wraps). */
    std::uint32_t wireTarget = 0;
    bool wireTargetSet = false;

    const void *peerDomain = nullptr;
    std::uint32_t peerFlow = 0;
    bool peerBound = false;

    Tick begin = 0;
    Tick end = 0;
    bool done = false;
    bool aborted = false;
    /** The request's event merged into an earlier one in the scheduler
     *  coalescing window; later stages observed via offset coverage. */
    bool coalesced = false;
    std::uint8_t wireEntries = 0;

    std::vector<Span> spans;

    Tick latency() const { return end - begin; }
    const Span *lastOpen(Stage stage) const;
    Span *lastOpen(Stage stage);
    bool hasOpen(Stage stage) const { return lastOpen(stage) != nullptr; }
    /** Sum of non-abandoned span durations across all stages. */
    Tick sampledTotal() const;
};

/**
 * The tracer. Construct one per Simulation (it registers itself via
 * Simulation::setCausalTracer and its histograms under "ctrace.*" in
 * sim.stats()); instrumented modules reach it through
 * `sim().causalTracer()` behind `if constexpr (trace::compiledIn)`.
 *
 * Bounds: at most @p max_live requests are in flight (beginRequest
 * returns an invalid token beyond that, counted in overflowDropped);
 * the last @p keep_completed finished requests keep their span trees
 * for inspection — histograms are sampled at completion, so evicting
 * old trees loses no aggregate data.
 */
class CausalTracer
{
  public:
    explicit CausalTracer(Simulation &sim, std::size_t keep_completed = 4096,
                          std::size_t max_live = 1 << 16);
    ~CausalTracer();

    CausalTracer(const CausalTracer &) = delete;
    CausalTracer &operator=(const CausalTracer &) = delete;

    // --- sender-side transitions -------------------------------------------
    /** Application handed a send to the library: allocate the context. */
    Token beginRequest(const void *domain, std::uint32_t flow,
                       std::uint64_t target_offset, Tick at);
    /** Command pushed to the SQ and the doorbell rung. */
    void submitted(Token t, Tick at);
    /** Command DMA completed: doorbell ended at @p fetch_start, the
     *  PCIe span is [fetch_start, at]. */
    void fetched(Token t, Tick fetch_start, Tick at);
    /** Engine turned the command into a TcpEvent bound for an FPC. */
    void eventQueued(Token t, Tick at);
    /** Record the wire sequence number of the request's last byte. */
    void setWireTarget(Token t, std::uint32_t seq);
    /** @p t's event merged into an earlier queued event. */
    void coalescedInto(Token t, Tick at);

    // --- FPC (both hosts) ---------------------------------------------------
    /** FPC event handler absorbed the event into the slot's record. */
    void absorbed(Token t, Tick at);
    /** The slot issued to the FPU (fpcExec service begins). */
    void execStarted(Token t, Tick at);
    /** FPU pass wrote back; the request's processing is complete. */
    void processed(Token t, Tick at);

    // --- wire ---------------------------------------------------------------
    /** Packet generator asked to cover [from_seq+1, to_seq]: opens a
     *  wire span for every request whose target byte is inside. */
    void wireQueued(const void *domain, std::uint32_t flow,
                    std::uint32_t from_seq, std::uint32_t to_seq, Tick at);
    /** Token to stamp on the departing segment [seq+1, seq+len]. */
    Token wireToken(const void *domain, std::uint32_t flow,
                    std::uint32_t seq, std::uint32_t payload_len) const;
    /** Link started serializing the stamped packet. */
    void wireService(Token t, Tick tx_start);
    /** Stamped packet reached the peer's RX parser: close the wire
     *  span(s), record the 0-width rxParse span, bind the peer flow. */
    void arrivedRx(Token t, const void *peer_domain, std::uint32_t peer_flow,
                   Tick at);

    // --- upcall -------------------------------------------------------------
    /** Peer engine posted a cumulative received-offset completion:
     *  every bound request with target <= offset enters upcall.
     *  @return the token to stamp on the completion (invalid if none). */
    Token upcallPosted(const void *peer_domain, std::uint32_t peer_flow,
                       std::uint32_t offset32, Tick at);
    /** Completion batch started its PCIe flush (upcall service). */
    void upcallService(Token t, Tick at);
    /** Library delivered the completion to the application: the
     *  request (and everything it covers) is done. */
    void delivered(Token t, Tick at);

    /** Flow torn down with requests still open: abort them. */
    void flowAborted(const void *domain, std::uint32_t flow, Tick at);

    // --- raw span API (tests / ad-hoc stages) -------------------------------
    void openSpan(Token t, Stage stage, Tick at);
    void markService(Token t, Stage stage, Tick at);
    void closeSpan(Token t, Stage stage, Tick at);

    // --- results ------------------------------------------------------------
    const std::deque<Request> &completed() const { return completed_; }
    const Request *findLive(Token t) const;
    /** Completed request with the largest end-to-end latency. */
    const Request *slowestCompleted() const;

    Histogram &stageTotal(Stage s) { return *total_[idx(s)]; }
    Histogram &stageQueue(Stage s) { return *queue_[idx(s)]; }
    Histogram &stageService(Stage s) { return *service_[idx(s)]; }
    Histogram &e2e() { return *e2e_; }

    std::uint64_t requestsStarted() const { return started_.value(); }
    std::uint64_t requestsCompleted() const { return completedCount_.value(); }
    std::uint64_t requestsAborted() const { return aborted_.value(); }
    std::uint64_t outOfOrderCloses() const { return outOfOrder_.value(); }
    std::uint64_t duplicateArrivals() const { return duplicates_.value(); }
    std::uint64_t coalescedMerges() const { return coalesced_.value(); }
    std::uint64_t wireReentries() const { return wireReentries_.value(); }
    std::uint64_t abandonedSpans() const { return abandonedSpans_.value(); }
    std::uint64_t overflowDropped() const { return overflow_.value(); }
    std::size_t liveCount() const { return live_.size(); }

    /** Human-readable critical path of one request's span tree. */
    std::string criticalPath(const Request &request) const;

  private:
    using FlowKey = std::pair<const void *, std::uint32_t>;

    static std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }

    Request *get(Token t);
    const Request *get(Token t) const;
    /** Close @p span of @p req at @p at and sample the histograms. */
    void closeAndSample(Request &req, Span &span, Tick at);
    void finish(Request &req, Tick at);
    void abort(Request &req, Tick at);
    /** Move a done request from live_ to completed_ and unindex it. */
    void retire(std::uint32_t id);
    void emitTimeline(const Request &req, const Span &span);

    Simulation &sim_;
    std::size_t keepCompleted_;
    std::size_t maxLive_;
    std::uint32_t nextId_ = 1;

    std::unordered_map<std::uint32_t, Request> live_;
    std::deque<Request> completed_;
    std::map<FlowKey, std::vector<std::uint32_t>> senderIndex_;
    std::map<FlowKey, std::vector<std::uint32_t>> peerIndex_;
    /** Per-peer-flow unwrap reference for 32-bit completion offsets. */
    std::map<FlowKey, std::uint64_t> deliveredRef_;

    std::unique_ptr<Histogram> total_[numStages];
    std::unique_ptr<Histogram> queue_[numStages];
    std::unique_ptr<Histogram> service_[numStages];
    std::unique_ptr<Histogram> e2e_;

    Counter started_;
    Counter completedCount_;
    Counter aborted_;
    Counter outOfOrder_;
    Counter duplicates_;
    Counter coalesced_;
    Counter wireReentries_;
    Counter abandonedSpans_;
    Counter overflow_;
};

} // namespace f4t::sim::ctrace

#endif // F4T_SIM_CAUSAL_TRACE_HH
