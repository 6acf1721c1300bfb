/**
 * @file
 * Observability layer: per-module trace flags, a Chrome trace-event
 * timeline sink, and a periodic statistics sampler.
 *
 * Three complementary views of a run, each zero-cost when unused:
 *
 *  - `F4T_TRACE(Fpc, "absorb %s flow=%u", ...)` — gem5-DPRINTF-style
 *    tracepoints gated by per-module flags. Flags are selected at run
 *    time by name or glob ("Fpc,Sch*", case-insensitive) through the
 *    F4T_TRACE environment variable, trace::setFlags(), or
 *    Simulation::setTraceFlags(); a leading '-' clears matching flags.
 *    Every line is stamped with the current simulation tick, and the
 *    `F4T_TRACE_CD` variant adds a clock domain's name and cycle. The
 *    release preset compiles both macros out (F4T_ENABLE_TRACE=OFF),
 *    exactly like F4T_CHECK, so tracepoints can sit on the hottest
 *    paths without taxing release-build numbers.
 *
 *  - TraceEventSink — buffers spans, instants, and counter samples and
 *    writes the Chrome trace-event JSON format (open the file in
 *    Perfetto or chrome://tracing). Modules emit through
 *    `if (auto *tl = sim().timeline()) tl->span(...)`; without a sink
 *    attached the cost is one pointer test, and hot per-event sites
 *    additionally compile out with `if constexpr (trace::compiledIn)`.
 *
 *  - StatSampler — snapshots selected StatRegistry entries (plus
 *    arbitrary probe callbacks, e.g. a connection's cwnd) every N ticks
 *    into a CSV time series, so Fig. 14-style curves fall out of any
 *    run without bespoke per-bench sampling loops.
 *
 * This header deliberately depends only on the event queue and logging
 * so simulation.hh can include it; entry points needing the full
 * Simulation type are implemented in trace.cc.
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
#include "sim/logging.hh"
#include "sim/types.hh"

namespace f4t::sim
{

class ClockDomain;
class Simulation;

namespace trace
{

#ifdef F4T_ENABLE_TRACE
constexpr bool compiledIn = true;
#else
constexpr bool compiledIn = false;
#endif

/** One flag per traced module; see toString() for the spellings. */
enum class Flag : unsigned
{
    Engine,
    Fpc,
    Scheduler,
    RxParser,
    PacketGenerator,
    MemoryManager,
    HostIf,
    Pcie,
    Link,
    SoftTcp,
    Timer,
    numFlags
};

constexpr unsigned numFlags = static_cast<unsigned>(Flag::numFlags);

const char *toString(Flag flag);

namespace detail
{

/* Always defined (not just under F4T_ENABLE_TRACE) so the flag API is
 * callable from any build; without the macro compiled in the state is
 * simply never consulted. */
extern bool flagState[numFlags];

/** Emit one already-formatted trace line, stamped with the current tick. */
void emit(Flag flag, const std::string &msg);
/** As emit(), additionally stamped with @p domain's name and cycle. */
void emitWithClock(Flag flag, const ClockDomain &domain,
                   const std::string &msg);

void notifySimulationCreated(Simulation &sim);
void notifySimulationDestroyed(Simulation &sim);

} // namespace detail

/** Is @p flag currently selected? (One array load when compiled in.) */
inline bool
enabled(Flag flag)
{
    if constexpr (!compiledIn)
        return false;
    return detail::flagState[static_cast<unsigned>(flag)];
}

/**
 * Select flags from a comma- or space-separated list of case-insensitive
 * glob patterns ("Fpc", "Sch*", "*"). A leading '-' clears the matching
 * flags instead ("*,-Link" = everything but Link). Unknown patterns
 * warn and are ignored. @return the number of flag changes applied.
 */
std::size_t setFlags(const std::string &spec);

/** Clear every flag. */
void clearFlags();

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
 * by Perfetto and chrome://tracing). Events buffer in memory — at most
 * @p max_events, further emissions are counted and dropped — and
 * write() produces the JSON document. Tracks (one per module, named)
 * map to thread ids within a single synthetic process.
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

    /** Counter sample ("C" phase); series named @p name. */
    void counter(const std::string &track, std::string name, Tick at,
                 double value);

    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t droppedEvents() const { return dropped_; }

    /** Write the complete JSON document. */
    void write(std::ostream &os) const;

    /** write() to @p path; warns and returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct TraceEvent
    {
        char phase; ///< 'X', 'i', or 'C'
        std::uint32_t tid;
        const char *category;
        std::string name;
        Tick ts;
        Tick dur;     ///< 'X' only
        double value; ///< 'C' only
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

    std::uint64_t samplesTaken() const { return samples_; }

  private:
    struct SampleEvent : public Event
    {
        explicit SampleEvent(StatSampler &owner)
            : Event(statsPriority), owner_(owner)
        {}
        void process() override { owner_.sample(); }
        std::string description() const override { return "stat.sample"; }
        const char *profileTag() const override { return "stat.sample"; }
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

#ifdef F4T_ENABLE_TRACE
#define F4T_TRACE(flag, ...)                                              \
    do {                                                                  \
        if (::f4t::sim::trace::enabled(::f4t::sim::trace::Flag::flag))    \
            ::f4t::sim::trace::detail::emit(                              \
                ::f4t::sim::trace::Flag::flag,                            \
                ::f4t::sim::detail::format(__VA_ARGS__));                 \
    } while (0)
#define F4T_TRACE_CD(flag, domain, ...)                                   \
    do {                                                                  \
        if (::f4t::sim::trace::enabled(::f4t::sim::trace::Flag::flag))    \
            ::f4t::sim::trace::detail::emitWithClock(                     \
                ::f4t::sim::trace::Flag::flag, (domain),                  \
                ::f4t::sim::detail::format(__VA_ARGS__));                 \
    } while (0)
#else
/* The dead branch keeps the operands type-checked and "used" (no
 * -Wunused in trace-off builds) while the optimizer deletes the call. */
#define F4T_TRACE(flag, ...)                                \
    do {                                                    \
        if (false)                                          \
            (void)::f4t::sim::detail::format(__VA_ARGS__);  \
    } while (0)
#define F4T_TRACE_CD(flag, domain, ...)                     \
    do {                                                    \
        if (false) {                                        \
            (void)(domain);                                 \
            (void)::f4t::sim::detail::format(__VA_ARGS__);  \
        }                                                   \
    } while (0)
#endif

#endif // F4T_SIM_TRACE_HH
