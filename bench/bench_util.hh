/**
 * @file
 * Shared helpers for the per-figure benchmark binaries: a table
 * printer that shows paper-reported values next to measured ones, and
 * rate/goodput helpers.
 *
 * Each binary regenerates one table or figure from the paper. The
 * substrate is a simulator, not the authors' testbed, so the binaries
 * print "paper" and "measured" columns side by side: absolute numbers
 * track where behaviour is architectural and the *shape* (who wins,
 * by what factor, where curves break) is the reproduction target.
 */

#ifndef F4T_BENCH_BENCH_UTIL_HH
#define F4T_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli_args.hh"
#include "net/link.hh"
#include "net/pcap_writer.hh"
#include "obs/profiler.hh"
#include "obs/run_meta.hh"
#include "sim/profile_scope.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace f4t::bench
{

/**
 * Stamp a hand-rolled BENCH_*.json writer with the run's identity
 * (git SHA, build preset, feature gates, wall timestamp) so the file
 * says which build produced it. Emits a `"meta": {...}` member with no
 * trailing comma.
 */
inline void
writeRunMeta(std::FILE *out, int indent)
{
    obs::writeMetaJson(out, obs::currentRunMeta(), indent);
}

/** Print the standard figure banner. */
inline void
banner(const std::string &figure, const std::string &title)
{
    std::printf("\n");
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure.c_str(), title.c_str());
    std::printf("==============================================================\n");
}

/** Simple aligned table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &row : rows_) {
            for (std::size_t c = 0; c < row.size() && c < width.size();
                 ++c) {
                width[c] = std::max(width[c], row[c].size());
            }
        }
        auto print_row = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            cells[c].c_str());
            std::printf("\n");
        };
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t w : width)
            total += w + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &row : rows_)
            print_row(row);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/** Goodput in Gbps from bytes over a simulated window. */
inline double
gbps(std::uint64_t bytes, sim::Tick window)
{
    double seconds = sim::ticksToSeconds(window);
    return seconds > 0 ? bytes * 8.0 / seconds / 1e9 : 0.0;
}

/** Rate in millions per second over a simulated window. */
inline double
mrps(std::uint64_t count, sim::Tick window)
{
    double seconds = sim::ticksToSeconds(window);
    return seconds > 0 ? count / seconds / 1e6 : 0.0;
}

/**
 * Obs: the shared observability front-end for every figure binary,
 * example, and the fuzz replayer. Call Obs::install(argc, argv) at the
 * top of main(); it strips the capture flags below from argv (so
 * binaries with strict parsers never see them) and hooks simulation
 * and link construction so capture needs no per-binary wiring:
 *
 *   --trace=SPEC            text trace of the probe kinds matching SPEC
 *                           (glob over kind names, '-' negates:
 *                           "fpc*,sched_*,-timer_fire"; sim/probe.cc)
 *   --pcap=PATH             one .pcap (+ .index sidecar) per Link
 *   --timeline=PATH         Chrome trace-event JSON per Simulation
 *   --stat-sample=PATH[@US] stat time-series CSV per Simulation,
 *                           sampled every US microseconds (default 100)
 *   --stat-select=GLOB      which stats the CSV columns cover ("*")
 *   --stats-json=PATH       end-of-run StatRegistry JSON per Simulation
 *   --profile               enable the wall-clock self-profiler for the
 *                           whole process (needs F4T_ENABLE_PROFILE);
 *                           bench mains that know their measurement
 *                           windows emit per-scenario tables and JSON,
 *                           and every binary prints a whole-process
 *                           category table at exit
 *
 * Binaries that build several simulations or links get index-suffixed
 * files: timeline.json, timeline.1.json, ... in construction order.
 *
 * A malformed capture flag — a value flag with no value, a flag given
 * twice (only --trace= may repeat: its patterns accumulate),
 * --profile=X, a --stat-sample interval that is not a number in range,
 * an output path whose directory is missing or not writable — prints
 * usage and exits 2 before anything simulates. A capture that still
 * cannot be written when its simulation or link is set up or torn down
 * exits 1. Every other argument passes through untouched.
 */
class Obs
{
  public:
    static Obs &
    instance()
    {
        static Obs obs;
        return obs;
    }

    /** Strip capture flags from argv and install the observers. */
    static void
    install(int &argc, char **argv)
    {
        instance().parseArgs(argc, argv);
    }

    /** Programmatic capture with a common file prefix (fuzz replay). */
    static void
    capturePrefix(const std::string &prefix)
    {
        Obs &obs = instance();
        obs.pcapPath_ = prefix + ".pcap";
        obs.timelinePath_ = prefix + ".timeline.json";
        obs.statCsvPath_ = prefix + ".stats.csv";
        obs.statsJsonPath_ = prefix + ".stats.json";
        obs.installObservers();
    }

    /** Add a derived column (e.g. cwnd) to a simulation's sampler.
     *  No-op unless --stat-sample/--stats-json enabled sampling. */
    static void
    probe(sim::Simulation &sim, std::string column,
          std::function<double()> fn)
    {
        for (auto &rec : instance().sims_) {
            if (rec->sim == &sim && rec->sampler) {
                rec->sampler->addProbe(std::move(column), std::move(fn));
                return;
            }
        }
    }

    /** True when any capture sink was requested. */
    static bool
    active()
    {
        return instance().installed_;
    }

    /** True when --profile was passed (and the profiler is compiled
     *  in): bench mains emit per-scenario cost tables and JSON. */
    static bool
    profiling()
    {
        return instance().profileActive_;
    }

  private:
    struct SimRec
    {
        sim::Simulation *sim = nullptr;
        std::string timelinePath;
        std::unique_ptr<sim::trace::TraceEventSink> timeline;
        std::unique_ptr<sim::trace::StatSampler> sampler;
    };

    void
    parseArgs(int &argc, char **argv)
    {
        int out = 1;
        std::vector<std::string_view> seen;
        for (int i = 1; i < argc; ++i) {
            std::string_view arg = argv[i];
            std::size_t eq = arg.find('=');
            std::string_view name = arg.substr(0, eq);
            std::string *dest = name == "--pcap"          ? &pcapPath_
                                : name == "--timeline"    ? &timelinePath_
                                : name == "--stat-sample" ? &statCsvPath_
                                : name == "--stat-select" ? &statSelect_
                                : name == "--stats-json"  ? &statsJsonPath_
                                                          : nullptr;
            bool has_value =
                eq != std::string_view::npos && eq + 1 < arg.size();
            if (dest != nullptr || name == "--profile") {
                if (std::find(seen.begin(), seen.end(), name) != seen.end())
                    usageError(name, "given twice");
                seen.push_back(name);
            }
            if (name == "--profile") {
                if (eq != std::string_view::npos)
                    usageError(arg, "takes no value");
                enableProfiling();
            } else if (dest == nullptr && name != "--trace") {
                argv[out++] = argv[i]; // the binary's own argument
            } else if (!has_value) {
                usageError(arg, "needs =VALUE");
            } else if (dest != nullptr) {
                *dest = arg.substr(eq + 1);
            } else {
                sim::trace::select(std::string(arg.substr(eq + 1)));
            }
        }
        argc = out;
        if (auto at = statCsvPath_.rfind('@'); at != std::string::npos) {
            statIntervalUs_ = parseIntervalUs(statCsvPath_.substr(at + 1));
            statCsvPath_.resize(at);
            if (statCsvPath_.empty())
                usageError("--stat-sample", "needs a path before '@'");
        }
        for (auto [flag, path] : {std::pair{"--pcap", &pcapPath_},
                                  std::pair{"--timeline", &timelinePath_},
                                  std::pair{"--stat-sample", &statCsvPath_},
                                  std::pair{"--stats-json",
                                            &statsJsonPath_}}) {
            if (path->empty())
                continue;
            std::string problem = outputPathProblem(*path);
            if (!problem.empty())
                usageError(flag, problem.c_str());
        }
        if (!pcapPath_.empty() || !timelinePath_.empty() ||
            !statCsvPath_.empty() || !statsJsonPath_.empty()) {
            installObservers();
        }
    }

    /** A requested capture could not be written: fail the run. */
    [[noreturn]] static void
    writeError(const std::string &what)
    {
        std::fprintf(stderr, "obs: cannot write %s\n", what.c_str());
        std::exit(1);
    }

    [[noreturn]] static void
    usageError(std::string_view what, const char *problem)
    {
        std::fprintf(stderr,
                     "obs: %.*s %s\n"
                     "capture flags: --trace=SPEC --pcap=PATH "
                     "--timeline=PATH --stat-sample=PATH[@US]\n"
                     "               --stat-select=GLOB "
                     "--stats-json=PATH --profile\n",
                     static_cast<int>(what.size()), what.data(), problem);
        std::exit(2);
    }

    /**
     * The @US suffix of --stat-sample: a decimal number of microseconds
     * from one tick (1e-6) to 1e12, past which the tick conversion
     * overflows.
     */
    static double
    parseIntervalUs(const std::string &text)
    {
        std::string what = "--stat-sample interval '" + text + "'";
        char *end = nullptr;
        double us = std::strtod(text.c_str(), &end);
        if (text.empty() ||
            std::isspace(static_cast<unsigned char>(text[0])) ||
            end != text.c_str() + text.size())
            usageError(what, "is not a number");
        if (!(us >= 1e-6 && us <= 1e12))
            usageError(what, "is out of range (1e-6 to 1e12 us)");
        return us;
    }

    void
    enableProfiling()
    {
        if (!sim::prof::compiledIn) {
            std::fprintf(stderr,
                         "obs: --profile ignored — this build has "
                         "F4T_ENABLE_PROFILE=OFF (use the default "
                         "configure, not the release preset)\n");
            return;
        }
        if (profileActive_)
            return;
        profileActive_ = true;
        sim::prof::setEnabled(true);
        profileStart_ = std::chrono::steady_clock::now();
        // Whole-process fallback: even binaries that never call
        // profiling() themselves print a category table at exit.
        std::atexit([] {
            Obs &obs = instance();
            double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - obs.profileStart_)
                    .count();
            obs::ProfileReport report =
                obs::makeProfileReport(sim::prof::capture(), wall);
            std::fprintf(stderr, "obs: whole-process profile\n");
            obs::printProfileTable(stderr, report);
        });
    }

    void
    installObservers()
    {
        if (installed_)
            return;
        installed_ = true;
        sim::trace::setSimulationObservers(
            [](sim::Simulation &s) { instance().onSimCreated(s); },
            [](sim::Simulation &s) { instance().onSimDestroyed(s); });
        if (!pcapPath_.empty()) {
            net::Link::setCreationObserver(
                [](net::Link &link) { instance().onLinkCreated(link); });
        }
    }

    void
    onSimCreated(sim::Simulation &sim)
    {
        auto rec = std::make_unique<SimRec>();
        rec->sim = &sim;
        std::size_t index = sims_.size();
        if (!timelinePath_.empty()) {
            rec->timelinePath = indexedPath(timelinePath_, index);
            rec->timeline = std::make_unique<sim::trace::TraceEventSink>();
            sim.setTimeline(rec->timeline.get());
        }
        if (!statCsvPath_.empty() || !statsJsonPath_.empty()) {
            rec->sampler = std::make_unique<sim::trace::StatSampler>(
                sim, sim::microsecondsToTicks(statIntervalUs_));
            rec->sampler->selectStats(statSelect_);
            if (!statCsvPath_.empty())
                rec->sampler->setCsvPath(indexedPath(statCsvPath_, index));
            if (!statsJsonPath_.empty()) {
                rec->sampler->setStatsJsonPath(
                    indexedPath(statsJsonPath_, index));
            }
            rec->sampler->start();
        }
        sims_.push_back(std::move(rec));
    }

    void
    onSimDestroyed(sim::Simulation &sim)
    {
        for (auto &rec : sims_) {
            if (rec->sim != &sim)
                continue;
            // The event queue is still alive here (observer fires at the
            // top of ~Simulation), so the sampler event detaches safely.
            bool samples_ok = !rec->sampler || rec->sampler->flush();
            rec->sampler.reset();
            bool timeline_ok = true;
            if (rec->timeline) {
                rec->sim->setTimeline(nullptr);
                timeline_ok = rec->timeline->writeFile(rec->timelinePath);
                if (timeline_ok) {
                    std::fprintf(stderr, "obs: wrote %s (%zu events)\n",
                                 rec->timelinePath.c_str(),
                                 rec->timeline->eventCount());
                }
                rec->timeline.reset();
            }
            rec->sim = nullptr;
            if (!samples_ok)
                writeError("the stat samples");
            if (!timeline_ok)
                writeError(rec->timelinePath);
            return;
        }
    }

    void
    onLinkCreated(net::Link &link)
    {
        auto writer = std::make_unique<net::PcapWriter>(
            indexedPath(pcapPath_, pcaps_.size()));
        if (!writer->ok())
            writeError(writer->path());
        link.attachPcap(writer.get());
        std::fprintf(stderr, "obs: capturing %s to %s\n",
                     link.name().c_str(), writer->path().c_str());
        pcaps_.push_back(std::move(writer));
    }

    /** base.ext -> base.ext, base.1.ext, base.2.ext, ... */
    static std::string
    indexedPath(const std::string &base, std::size_t index)
    {
        if (index == 0)
            return base;
        std::size_t dot = base.rfind('.');
        std::size_t slash = base.rfind('/');
        if (dot == std::string::npos ||
            (slash != std::string::npos && dot < slash)) {
            return base + "." + std::to_string(index);
        }
        return base.substr(0, dot) + "." + std::to_string(index) +
               base.substr(dot);
    }

    bool installed_ = false;
    bool profileActive_ = false;
    std::chrono::steady_clock::time_point profileStart_{};
    std::string pcapPath_;
    std::string timelinePath_;
    std::string statCsvPath_;
    std::string statSelect_ = "*";
    std::string statsJsonPath_;
    double statIntervalUs_ = 100.0;
    std::vector<std::unique_ptr<SimRec>> sims_;
    std::vector<std::unique_ptr<net::PcapWriter>> pcaps_;
};

} // namespace f4t::bench

#endif // F4T_BENCH_BENCH_UTIL_HH
