/**
 * @file
 * Observability layer: the text trace's kind selection, a Chrome
 * trace-event timeline sink, and a periodic statistics sampler.
 *
 * Three complementary views of a run, each zero-cost when unused:
 *
 *  - The text trace: every SimObject::probe() record whose kind is
 *    selected prints one line, `<tick>: <module>: <record>` (the
 *    record spelled by sim/probe.hh). Kinds are selected at run time
 *    by case-insensitive glob over their names ("fpc*,sched_*") through
 *    the F4T_TRACE environment variable or trace::select(); a leading
 *    '-' deselects ("*,-link*"). The selection test is one byte load,
 *    in every build, the release preset included.
 *
 *  - TraceEventSink — buffers spans and instants and writes the Chrome
 *    trace-event JSON format (open the file in Perfetto or
 *    chrome://tracing). Probes draw into the simulation's sink when one
 *    is attached and their kind has a timeline category; without a
 *    sink (or a capture, Simulation::setCapture) the cost is one flag
 *    test.
 *
 *  - StatSampler — snapshots selected StatRegistry entries (plus
 *    arbitrary probe callbacks, e.g. a connection's cwnd) every N ticks
 *    into a CSV time series, so Fig. 14-style curves fall out of any
 *    run without bespoke per-bench sampling loops.
 *
 * This header deliberately depends only on the event queue, logging
 * and the recorder's kinds so simulation.hh can include it; entry
 * points needing the full Simulation type are implemented in trace.cc.
 */

#ifndef F4T_SIM_TRACE_HH
#define F4T_SIM_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flight_recorder.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace f4t::sim
{

class Simulation;

namespace trace
{

namespace detail
{

extern bool selection[fr::numKinds];

/** Print one trace line: "<tick>: <module>: <body>". */
void emit(Tick tick, const std::string &module, const std::string &body);

void notifySimulationCreated(Simulation &sim);
void notifySimulationDestroyed(Simulation &sim);

} // namespace detail

/** Does the text trace print @p kind? (One array load.) */
inline bool
selected(fr::Kind kind)
{
    return detail::selection[static_cast<unsigned>(kind)];
}

/**
 * Select kinds for the text trace from a comma- or space-separated
 * list of case-insensitive glob patterns over kind names ("fpc*",
 * "timer_fire", "*"). A leading '-' deselects the matching kinds
 * instead ("*,-link*" = everything but the link kinds); the last
 * matching pattern wins. Unknown patterns warn and are ignored.
 * @return the number of selection changes applied.
 */
std::size_t select(const std::string &spec);

/** Deselect every kind. */
void clearSelection();

/** Case-insensitive glob match ('*' and '?'); exposed for tests. */
bool globMatch(const char *pattern, const char *text);

/** Redirect trace-line output (default stderr). Not owned. */
void setOutput(std::FILE *out);

/**
 * Process-wide hooks observing Simulation construction/destruction, so
 * a CLI layer (bench::Obs) can attach timeline sinks and stat samplers
 * to every simulation a binary creates without per-bench plumbing.
 * Pass empty functions to uninstall.
 */
void setSimulationObservers(std::function<void(Simulation &)> on_created,
                            std::function<void(Simulation &)> on_destroyed);

/**
 * Chrome trace-event JSON sink ("Trace Event Format", the format read
 * by Perfetto and chrome://tracing) for spans and instants. Events
 * buffer in memory — at most @p max_events, further emissions are
 * counted and dropped — and write() produces the JSON document. Tracks
 * (one per module, named) map to thread ids within a single synthetic
 * process.
 *
 * Memory bound: the buffer holds at most max_events records (default
 * 2^20, roughly 100 MB worst case with long names) and NEVER grows
 * past it — long runs truncate rather than exhaust memory. Overflow is
 * not silent: droppedEvents() reports the count, and when any events
 * were dropped the written document ends with a
 * "trace.droppedEvents" counter record (category "meta", stamped at
 * the last retained event) so a viewer shows the truncation point.
 */
class TraceEventSink
{
  public:
    explicit TraceEventSink(std::size_t max_events = std::size_t{1} << 20)
        : maxEvents_(max_events)
    {}

    /** Complete span [start, end] on @p track ("X" phase). */
    void span(const std::string &track, const char *category,
              std::string name, Tick start, Tick end);

    /** Instantaneous event ("i" phase). */
    void instant(const std::string &track, const char *category,
                 std::string name, Tick at);

    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t droppedEvents() const { return dropped_; }

    /** Write the complete JSON document. */
    void write(std::ostream &os) const;

    /** write() to @p path; warns and returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct TraceEvent
    {
        char phase; ///< 'X' or 'i'
        std::uint32_t tid;
        const char *category;
        std::string name;
        Tick ts;
        Tick dur; ///< 'X' only
    };

    std::uint32_t trackId(const std::string &track);
    bool full();

    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::vector<TraceEvent> events_;
    std::unordered_map<std::string, std::uint32_t> trackIds_;
    std::vector<std::string> trackNames_;
};

/**
 * Periodic statistics sampler: every @p interval ticks, append one CSV
 * row holding the current value of each selected StatRegistry entry and
 * each registered probe. Columns are resolved at the *first* sample
 * (not at start()) so modules constructed after the sampler still
 * contribute. Optionally rewrites a full StatRegistry::dumpJson
 * snapshot on every fire — last write wins, leaving the end-of-run
 * aggregate on disk without hooking simulation teardown.
 */
class StatSampler
{
  public:
    StatSampler(Simulation &sim, Tick interval);
    ~StatSampler();

    StatSampler(const StatSampler &) = delete;
    StatSampler &operator=(const StatSampler &) = delete;

    /** Select registry statistics by glob list (same syntax as flags). */
    void selectStats(std::string glob_spec) { statSpec_ = std::move(glob_spec); }
    /** Add a computed column, e.g. a connection's cwnd. */
    void addProbe(std::string column, std::function<double()> fn);
    void setCsvPath(std::string path) { csvPath_ = std::move(path); }
    /** Rewrite a dumpJson snapshot to @p path on every sample. */
    void setStatsJsonPath(std::string path) { jsonPath_ = std::move(path); }

    /** Schedule the first sample one interval from now. */
    void start();
    void stop();

    /** Flush the CSV. @return false when a sample could not be
     *  written to the CSV or the stats JSON. */
    bool flush();

    std::uint64_t samplesTaken() const { return samples_; }

  private:
    struct SampleEvent : public Event
    {
        explicit SampleEvent(StatSampler &owner)
            : Event(statsPriority, prof::Cat::obsSink), owner_(owner)
        {}
        void process() override { owner_.sample(); }
        std::string description() const override { return "stat.sample"; }
        StatSampler &owner_;
    };

    void sample();
    void resolveColumns();

    Simulation &sim_;
    Tick interval_;
    std::string statSpec_ = "*";
    std::string csvPath_;
    std::string jsonPath_;
    std::FILE *csv_ = nullptr;
    bool writeFailed_ = false;
    bool columnsResolved_ = false;
    std::vector<std::string> statColumns_;
    struct Probe
    {
        std::string column;
        std::function<double()> fn;
    };
    std::vector<Probe> probes_;
    std::uint64_t samples_ = 0;
    SampleEvent event_{*this};
};

} // namespace trace

} // namespace f4t::sim

#endif // F4T_SIM_TRACE_HH
