/**
 * @file
 * Request spans rebuilt offline from a whole-run capture of probe
 * records (Simulation::setCapture): the model emits records, this
 * builder joins them into one span tree per request after the run.
 *
 * A request is one F4tLibrary::send. Its identity is (host, flow,
 * target), where the target is the cumulative stream offset of its
 * last byte; every later stage is located by that offset, or by the
 * same byte as a wire sequence number (the flow's tx_start plus the
 * offset). The stage taxonomy, one span per stage traversal:
 *
 *   appQueue  lib_send                -> lib_send (zero width)
 *   doorbell  lib_send                -> the command fetch's start
 *   pcie      fetch start             -> hif_fetch (pure service)
 *   fpcQueue  hif_fetch / rx_parse    -> first FPC absorb covering the
 *                                        target (fpc_user_send pointer,
 *                                        fpc_rx_segment rcv_up_to)
 *   fpcExec   that absorb             -> the flow's next fpu_pass after
 *                                        the first fpu_issue covering
 *                                        the target (service begins at
 *                                        that issue)
 *   wire      pktgen_segment/_retransmit holding the target
 *                                     -> the peer's rx_parse of a
 *                                        segment at or past the target
 *                                        (service from link_tx)
 *   rxParse   rx_parse (zero width)
 *   upcall    covering upcall_post    -> lib_deliver (service from
 *                                        its hif_flush)
 *
 * fpcQueue/fpcExec run once on each host: on the sender against the
 * FPU pass's merged `req`, on the receiver against `rcvNxt`. A request
 * whose TCB sat in DRAM (no FPC absorbed its event) closes fpcQueue at
 * the pass instead and has no fpcExec on that host. Coverage makes
 * coalescing, FPU-record accumulation and FPC<->DRAM migration need no
 * per-request plumbing: a request whose event merged into a later one
 * in the scheduler closes fpcQueue at the survivor's absorb (it is
 * counted as merged) and rides the survivor's FPU pass.
 *
 * A retransmission re-enters the wire stage and abandons the open wire
 * span (kept in the tree, not sampled). A segment arriving for a
 * request with no open wire span is a duplicate arrival.
 * engine_recycle aborts whatever the flow still has open.
 *
 * Hosts are bound by name (SpanHost): the builder is told each host's
 * engine, runtime and transmit link direction, and pairs the two ends
 * of a connection through the tuple hash that engine_connect and
 * engine_accept carry.
 */

#ifndef F4T_OBS_SPANS_HH
#define F4T_OBS_SPANS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/flight_recorder.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace f4t::obs
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
    sim::Tick begin = 0;
    sim::Tick serviceBegin = 0; ///< valid iff serviceSet
    sim::Tick end = 0;
    bool serviceSet = false;
    bool open = true;
    /** Superseded by a retransmission, or left open when the request
     *  finished or aborted: kept in the tree, not sampled. */
    bool abandoned = false;

    sim::Tick duration() const { return end - begin; }
    sim::Tick queueTime() const
    {
        return serviceSet ? serviceBegin - begin : 0;
    }
    sim::Tick serviceTime() const
    {
        return serviceSet ? end - serviceBegin : end - begin;
    }
};

/** One request: identity and span tree. */
struct Request
{
    /** 1-based, in lib_send order. */
    std::uint32_t id = 0;
    /** The sender's local flow id. */
    std::uint32_t flow = 0;
    /** Cumulative stream offset of the request's last byte. */
    std::uint64_t targetOffset = 0;
    sim::Tick begin = 0;
    sim::Tick end = 0;
    bool done = false;
    bool aborted = false;
    /** Its event merged into a later one before an FPC absorbed it. */
    bool merged = false;
    /** Finished after the window mark: its e2e latency was sampled. */
    bool sampled = false;
    std::uint8_t wireEntries = 0;
    std::vector<Span> spans;

    sim::Tick latency() const { return end - begin; }
    /** Sum of closed, non-abandoned span durations. */
    sim::Tick sampledTotal() const;
};

/** One end host of the captured world, named as its SimObjects are. */
struct SpanHost
{
    /** FtEngine: records of "<engine>" and "<engine>.*". */
    std::string engine;
    /** F4tRuntime: lib_send and lib_deliver. */
    std::string runtime;
    /** LinkDirection carrying this host's transmissions. */
    std::string txLink;
};

/**
 * The span trees and per-stage histograms of one capture. Spans that
 * close, and requests that finish, at or after record @p window_start
 * are sampled into the histograms; earlier ones stay in the trees.
 * Histograms are registered as "ctrace.<stage>.total/.queue/.service"
 * and "ctrace.e2e" in the object's own registry.
 */
class Spans
{
  public:
    Spans(const std::vector<sim::fr::Record> &records,
          const std::vector<SpanHost> &hosts, std::size_t window_start = 0);
    ~Spans();

    Spans(const Spans &) = delete;
    Spans &operator=(const Spans &) = delete;

    /** Every request, in id order. */
    const std::vector<Request> &requests() const { return requests_; }

    sim::Histogram &stageTotal(Stage s) { return *total_[idx(s)]; }
    sim::Histogram &stageQueue(Stage s) { return *queue_[idx(s)]; }
    sim::Histogram &stageService(Stage s) { return *service_[idx(s)]; }
    sim::Histogram &e2e() { return *e2e_; }

    std::uint64_t started() const { return requests_.size(); }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t aborted() const { return aborted_; }
    std::uint64_t live() const { return started() - completed_ - aborted_; }
    std::uint64_t duplicateArrivals() const { return duplicates_; }
    std::uint64_t merged() const { return merged_; }
    std::uint64_t wireReentries() const { return wireReentries_; }
    std::uint64_t abandonedSpans() const { return abandoned_; }

    /** The sampled request with the largest e2e latency (the e2e
     *  histogram's maximum); nullptr when none finished. */
    const Request *slowest() const;

    /** Human-readable critical path of one request's span tree. */
    std::string criticalPath(const Request &request) const;

    /** Draw every closed, non-abandoned span into @p sink as
     *  "ctrace.<stage>" spans named "req<id>", category "ctrace". */
    void draw(sim::trace::TraceEventSink &sink) const;

  private:
    class Builder;

    static std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }

    std::vector<Request> requests_;
    sim::StatRegistry registry_;
    std::unique_ptr<sim::Histogram> total_[numStages];
    std::unique_ptr<sim::Histogram> queue_[numStages];
    std::unique_ptr<sim::Histogram> service_[numStages];
    std::unique_ptr<sim::Histogram> e2e_;
    std::uint64_t completed_ = 0;
    std::uint64_t aborted_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t merged_ = 0;
    std::uint64_t wireReentries_ = 0;
    std::uint64_t abandoned_ = 0;
};

} // namespace f4t::obs

#endif // F4T_OBS_SPANS_HH
