#include "logging.hh"

#include "sim/flight_recorder.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace f4t::sim
{

namespace
{

bool verboseFlag = true;

struct SimHook
{
    const void *owner;
    detail::TickFn now;
};

/* Stack, not a single slot: tests and differential harnesses construct
 * several simulations in one process (sometimes overlapping), and the
 * innermost live one should stamp the logs. */
thread_local std::vector<SimHook> simHooks;

} // namespace

void
setVerbose(bool verbose)
{
    verboseFlag = verbose;
}

bool
verbose()
{
    return verboseFlag;
}

namespace detail
{

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return fmt;
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    // Black box first: the check message names the failing module and
    // flow, and the ring holds the last moments leading up to it. The
    // once-guard inside keeps the abort's SIGABRT handler from
    // writing a second dump.
    fr::dumpOnFailure("panic: " + msg + " (" + file + ":" +
                      std::to_string(line) + ")");
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
pushCurrentSim(const void *owner, TickFn now_fn)
{
    simHooks.push_back(SimHook{owner, now_fn});
}

void
popCurrentSim(const void *owner)
{
    // Only the innermost registration: the executor binds partitions
    // whose constructors registered them on this same stack.
    auto it = std::find_if(simHooks.rbegin(), simHooks.rend(),
                           [owner](const SimHook &h) {
                               return h.owner == owner;
                           });
    if (it != simHooks.rend())
        simHooks.erase(std::next(it).base());
}

bool
currentSimTick(std::uint64_t &tick_out)
{
    if (simHooks.empty())
        return false;
    tick_out = simHooks.back().now(simHooks.back().owner);
    return true;
}

void
warnImpl(const std::string &msg)
{
    std::uint64_t tick;
    if (currentSimTick(tick))
        std::fprintf(stderr, "warn: @%llups: %s\n",
                     static_cast<unsigned long long>(tick), msg.c_str());
    else
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!verboseFlag)
        return;
    std::uint64_t tick;
    if (currentSimTick(tick))
        std::fprintf(stdout, "info: @%llups: %s\n",
                     static_cast<unsigned long long>(tick), msg.c_str());
    else
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace f4t::sim
