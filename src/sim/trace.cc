#include "trace.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>

#include "sim/probe.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace f4t::sim::trace
{

namespace
{

std::FILE *traceOut = nullptr; // nullptr = stderr (resolved at emit time)

std::function<void(Simulation &)> simCreatedObserver;
std::function<void(Simulation &)> simDestroyedObserver;

std::FILE *
out()
{
    return traceOut ? traceOut : stderr;
}

/** JSON string escaping for names and track labels. */
std::string
jsonEscape(const std::string &s)
{
    std::string result;
    result.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': result += "\\\""; break;
          case '\\': result += "\\\\"; break;
          case '\n': result += "\\n"; break;
          case '\t': result += "\\t"; break;
          case '\r': result += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                result += buf;
            } else {
                result += c;
            }
        }
    }
    return result;
}

/** Does any positive token match, with no negative token matching? */
bool
specSelects(const std::string &spec, const std::string &name)
{
    bool selected = false;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find_first_of(", ", pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string token = spec.substr(pos, end - pos);
        pos = end + 1;
        if (token.empty())
            continue;
        bool negate = token[0] == '-';
        if (negate)
            token.erase(0, 1);
        if (!token.empty() && globMatch(token.c_str(), name.c_str()))
            selected = !negate;
    }
    return selected;
}

/* Kind selection from the environment happens once, before main(), so
 * F4T_TRACE='fpc*' works on any binary without CLI support. */
[[maybe_unused]] const bool envInitialized = [] {
    if (const char *spec = std::getenv("F4T_TRACE")) {
        if (*spec != '\0')
            select(spec);
    }
    return true;
}();

} // namespace

namespace detail
{

bool selection[fr::numKinds] = {};

void
emit(Tick tick, const std::string &module, const std::string &body)
{
    std::fprintf(out(), "%12llu: %s: %s\n",
                 static_cast<unsigned long long>(tick), module.c_str(),
                 body.c_str());
}

void
notifySimulationCreated(Simulation &sim)
{
    if (simCreatedObserver)
        simCreatedObserver(sim);
}

void
notifySimulationDestroyed(Simulation &sim)
{
    if (simDestroyedObserver)
        simDestroyedObserver(sim);
}

} // namespace detail

bool
globMatch(const char *pattern, const char *text)
{
    // Iterative glob with single-star backtracking; case-insensitive.
    const char *star = nullptr;
    const char *starText = nullptr;
    const char *p = pattern;
    const char *t = text;
    auto lower = [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    };
    while (*t != '\0') {
        if (*p == '*') {
            star = p++;
            starText = t;
        } else if (*p == '?' || lower(*p) == lower(*t)) {
            ++p;
            ++t;
        } else if (star != nullptr) {
            p = star + 1;
            t = ++starText;
        } else {
            return false;
        }
    }
    while (*p == '*')
        ++p;
    return *p == '\0';
}

std::size_t
select(const std::string &spec)
{
    std::size_t changes = 0;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find_first_of(", ", pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string token = spec.substr(pos, end - pos);
        pos = end + 1;
        if (token.empty())
            continue;
        bool value = true;
        if (token[0] == '-') {
            value = false;
            token.erase(0, 1);
        }
        if (token.empty())
            continue;
        bool matched = false;
        for (std::size_t i = 0; i < fr::numKinds; ++i) {
            if (globMatch(token.c_str(),
                          probe::info(static_cast<std::uint8_t>(i)).name)) {
                matched = true;
                if (detail::selection[i] != value) {
                    detail::selection[i] = value;
                    ++changes;
                }
            }
        }
        if (!matched)
            f4t_warn("trace: pattern '%s' matches no kind (try '*')",
                     token.c_str());
    }
    return changes;
}

void
clearSelection()
{
    for (bool &state : detail::selection)
        state = false;
}

void
setOutput(std::FILE *out_file)
{
    traceOut = out_file;
}

void
setSimulationObservers(std::function<void(Simulation &)> on_created,
                       std::function<void(Simulation &)> on_destroyed)
{
    simCreatedObserver = std::move(on_created);
    simDestroyedObserver = std::move(on_destroyed);
}

// --- TraceEventSink ---------------------------------------------------------

std::uint32_t
TraceEventSink::trackId(const std::string &track)
{
    auto it = trackIds_.find(track);
    if (it != trackIds_.end())
        return it->second;
    trackNames_.push_back(track);
    std::uint32_t id = static_cast<std::uint32_t>(trackNames_.size());
    trackIds_.emplace(track, id);
    return id;
}

bool
TraceEventSink::full()
{
    if (events_.size() < maxEvents_)
        return false;
    ++dropped_;
    return true;
}

void
TraceEventSink::span(const std::string &track, const char *category,
                     std::string name, Tick start, Tick end)
{
    if (full())
        return;
    Tick dur = end > start ? end - start : 0;
    events_.push_back(TraceEvent{'X', trackId(track), category,
                                 std::move(name), start, dur});
}

void
TraceEventSink::instant(const std::string &track, const char *category,
                        std::string name, Tick at)
{
    if (full())
        return;
    events_.push_back(TraceEvent{'i', trackId(track), category,
                                 std::move(name), at, 0});
}

void
TraceEventSink::write(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    const char *sep = "\n ";
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        os << sep << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (t + 1)
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(trackNames_[t]) << "\"}}";
        sep = ",\n ";
    }
    char num[48];
    for (const TraceEvent &ev : events_) {
        // Trace-event timestamps are microseconds; one tick (1 ps) is
        // 1e-6 us, so six decimals preserve full tick resolution.
        std::snprintf(num, sizeof num, "%.6f",
                      static_cast<double>(ev.ts) * 1e-6);
        os << sep << "{\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":"
           << ev.tid << ",\"ts\":" << num << ",\"name\":\""
           << jsonEscape(ev.name) << "\"";
        if (ev.category != nullptr)
            os << ",\"cat\":\"" << jsonEscape(ev.category) << "\"";
        if (ev.phase == 'X') {
            std::snprintf(num, sizeof num, "%.6f",
                          static_cast<double>(ev.dur) * 1e-6);
            os << ",\"dur\":" << num;
        } else {
            os << ",\"s\":\"t\"";
        }
        os << "}";
        sep = ",\n ";
    }
    if (dropped_ > 0) {
        // The buffer overflowed: instead of a silently truncated
        // timeline, the document ends with a counter record carrying
        // the drop count, timestamped at the last retained event.
        Tick last = events_.empty() ? 0 : events_.back().ts;
        std::snprintf(num, sizeof num, "%.6f",
                      static_cast<double>(last) * 1e-6);
        os << sep
           << "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" << num
           << ",\"name\":\"trace.droppedEvents\",\"cat\":\"meta\","
              "\"args\":{\"value\":"
           << dropped_ << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

bool
TraceEventSink::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (os)
        write(os);
    os.close();
    if (os.fail()) {
        f4t_warn("trace: cannot write timeline '%s'", path.c_str());
        return false;
    }
    return true;
}

// --- StatSampler ------------------------------------------------------------

StatSampler::StatSampler(Simulation &sim, Tick interval)
    : sim_(sim), interval_(interval)
{
    f4t_assert(interval_ > 0, "stat sampler needs a positive interval");
}

StatSampler::~StatSampler()
{
    stop();
    if (csv_ != nullptr)
        std::fclose(csv_);
}

void
StatSampler::addProbe(std::string column, std::function<double()> fn)
{
    f4t_assert(!columnsResolved_,
               "stat sampler probes must be added before the first sample");
    probes_.push_back(Probe{std::move(column), std::move(fn)});
}

void
StatSampler::start()
{
    if (!event_.scheduled())
        sim_.queue().schedule(&event_, sim_.now() + interval_);
}

void
StatSampler::stop()
{
    if (event_.scheduled())
        sim_.queue().deschedule(&event_);
}

bool
StatSampler::flush()
{
    if (csv_ != nullptr && (std::fflush(csv_) != 0 || std::ferror(csv_)))
        writeFailed_ = true;
    return !writeFailed_;
}

void
StatSampler::resolveColumns()
{
    columnsResolved_ = true;
    sim_.stats().forEach([this](const StatBase &stat) {
        if (specSelects(statSpec_, stat.name()))
            statColumns_.push_back(stat.name());
    });
    if (csvPath_.empty())
        return;
    csv_ = std::fopen(csvPath_.c_str(), "w");
    if (csv_ == nullptr) {
        f4t_warn("trace: cannot write stat samples '%s'", csvPath_.c_str());
        writeFailed_ = true;
        return;
    }
    std::fprintf(csv_, "tick_ps,time_us");
    for (const std::string &column : statColumns_)
        std::fprintf(csv_, ",%s", column.c_str());
    for (const Probe &probe : probes_)
        std::fprintf(csv_, ",%s", probe.column.c_str());
    std::fputc('\n', csv_);
}

void
StatSampler::sample()
{
    if (!columnsResolved_)
        resolveColumns();
    ++samples_;
    if (csv_ != nullptr) {
        Tick now = sim_.now();
        std::fprintf(csv_, "%llu,%.3f",
                     static_cast<unsigned long long>(now),
                     static_cast<double>(now) * 1e-6);
        for (const std::string &column : statColumns_) {
            // Looked up fresh each fire: a module (and its stats) may
            // be destroyed mid-run; its column just goes empty.
            const StatBase *stat = sim_.stats().find(column);
            if (stat != nullptr)
                std::fprintf(csv_, ",%.10g", stat->sampleValue());
            else
                std::fputc(',', csv_);
        }
        for (const Probe &probe : probes_)
            std::fprintf(csv_, ",%.10g", probe.fn());
        std::fputc('\n', csv_);
    }
    if (!jsonPath_.empty()) {
        std::ofstream os(jsonPath_, std::ios::trunc);
        if (os)
            sim_.stats().dumpJson(os);
        os.close();
        if (os.fail())
            writeFailed_ = true;
    }
    sim_.queue().schedule(&event_, sim_.now() + interval_);
}

} // namespace f4t::sim::trace
