/**
 * @file
 * Status and error reporting helpers, following the gem5 conventions:
 *
 *  - panic():  something happened that can never happen unless the
 *              simulator itself is broken; aborts.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments); exits cleanly.
 *  - warn():   some functionality may not behave as expected.
 *  - inform(): normal operating status.
 */

#ifndef F4T_SIM_LOGGING_HH
#define F4T_SIM_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace f4t::sim
{

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Thread-local current-simulation hook. While a Simulation is alive on
 * the constructing thread, warn()/inform() prefix messages with its
 * current tick so interleaved logs are orderable, without threading a
 * Simulation reference through every call site. Registrations form a
 * stack: the most recently constructed Simulation wins, and destroying
 * it exposes the one below (tests routinely run several simulations in
 * one process). The stack is thread-local, so simulations run on
 * different threads never race on it; the parallel executor
 * (sim/parallel.hh) pushes each partition's Simulation onto the stack
 * while that partition runs its share of a window.
 */
using TickFn = std::uint64_t (*)(const void *owner);
void pushCurrentSim(const void *owner, TickFn now_fn);
void popCurrentSim(const void *owner);
/** @return true and fill @p tick_out when a simulation is active. */
bool currentSimTick(std::uint64_t &tick_out);

} // namespace detail

/** Enable or disable inform() output globally (benchmarks silence it). */
void setVerbose(bool verbose);
bool verbose();

#define f4t_panic(...) \
    ::f4t::sim::detail::panicImpl(__FILE__, __LINE__, \
                                  ::f4t::sim::detail::format(__VA_ARGS__))

#define f4t_fatal(...) \
    ::f4t::sim::detail::fatalImpl(__FILE__, __LINE__, \
                                  ::f4t::sim::detail::format(__VA_ARGS__))

#define f4t_warn(...) \
    ::f4t::sim::detail::warnImpl(::f4t::sim::detail::format(__VA_ARGS__))

#define f4t_inform(...) \
    ::f4t::sim::detail::informImpl(::f4t::sim::detail::format(__VA_ARGS__))

/** panic() unless the invariant holds. */
#define f4t_assert(cond, ...)                                             \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::f4t::sim::detail::panicImpl(                                \
                __FILE__, __LINE__,                                       \
                std::string("assertion failed: " #cond " — ") +           \
                    ::f4t::sim::detail::format(__VA_ARGS__));             \
        }                                                                 \
    } while (0)

} // namespace f4t::sim

#endif // F4T_SIM_LOGGING_HH
