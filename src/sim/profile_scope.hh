/**
 * @file
 * Wall-clock self-profiler core: scoped steady-clock timers with one
 * static accumulator block, attributing the simulator's own CPU time
 * to event categories and modules.
 *
 * Everything observability-adjacent in this codebase follows the same
 * two-level gate, and so does the profiler:
 *
 *  1. Compile gate: F4T_ENABLE_PROFILE (CMake option, default ON; the
 *     release perf preset turns it OFF). With the gate off, Scope is
 *     an empty struct and enabled() is constexpr false, so every
 *     instrumentation site folds to nothing — the zero-cost proof is
 *     the release-preset fingerprints and event_rate staying bit- and
 *     band-identical, the same bar the trace layer met.
 *  2. Runtime gate: setEnabled(true), flipped by `--profile` in
 *     bench::Obs. With the build gate on but the runtime gate off, an
 *     instrumentation site costs one byte load and a predictable
 *     branch.
 *
 * Attribution model: scopes nest on one stack and record
 * *self* time — a scope's elapsed time minus the elapsed time of the
 * scopes nested inside it. EventQueue::run() opens a root scope
 * (Cat::eventQueue), EventQueue::fire() opens one per event on the
 * category the event declares when it is constructed or scheduled,
 * and hot modules open finer scopes inside their event handlers. Because every child's
 * total is subtracted from its parent exactly once, the per-category
 * self times sum to the root scopes' elapsed wall time — which is how
 * the bench harnesses can assert that attributed time covers >= 90% of
 * a measured run.
 *
 * Threading contract: only the thread that runs simulations opens
 * scopes, flips the gate and captures. The accumulators are one plain
 * static block, trivially destructible, so the whole-process report
 * that bench::Obs prints from atexit can still read it after static
 * teardown.
 */

#ifndef F4T_SIM_PROFILE_SCOPE_HH
#define F4T_SIM_PROFILE_SCOPE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace f4t::sim::prof
{

#ifdef F4T_ENABLE_PROFILE
constexpr bool compiledIn = true;
#else
constexpr bool compiledIn = false;
#endif

/**
 * Cost categories. Coarse module buckets (one per major simulator
 * subsystem) plus fine per-TcpEvent-kind buckets that the FPC opens
 * *inside* its module scope — self-time accounting keeps the two
 * levels additive instead of double-counted.
 */
enum class Cat : std::uint8_t
{
    eventQueue = 0, ///< queue bookkeeping: ladder scans, heap ops, pops
    fpcExec,        ///< FPC tick outside the split-out phases below
    fpcFpuPass,     ///< FPU issue + write-back
    fpcUserSend,    ///< Fpc::handleEvent, per absorbed event kind
    fpcUserRecv,
    fpcUserConnect,
    fpcUserClose,
    fpcRxSegment,
    fpcTimeout,
    scheduler,   ///< event pre-routing / FPC selection
    linkSwitch,  ///< cable serialization, delivery ports, switch drains
    hostComplex, ///< PCIe, CPU cores, runtime, host interface, soft TCP
    rxParse,     ///< RX parser
    packetGen,   ///< TX packet generator
    memory,      ///< memory manager + DRAM model
    timerWheel,  ///< timer wheel arm/fire
    app,         ///< applications, socket APIs, load generators
    obsSink,     ///< stat sampling, audits, trace sinks
    harness,     ///< bench driver work outside the simulation proper
    otherEvent,  ///< events that declare no category (ad-hoc test events)
    numCats
};

constexpr std::size_t categoryCount = static_cast<std::size_t>(Cat::numCats);

/** Stable lower_snake name, used for JSON keys and table rows. */
inline const char *
toString(Cat cat)
{
    switch (cat) {
    case Cat::eventQueue: return "event_queue";
    case Cat::fpcExec: return "fpc_exec";
    case Cat::fpcFpuPass: return "fpc_fpu_pass";
    case Cat::fpcUserSend: return "fpc_user_send";
    case Cat::fpcUserRecv: return "fpc_user_recv";
    case Cat::fpcUserConnect: return "fpc_user_connect";
    case Cat::fpcUserClose: return "fpc_user_close";
    case Cat::fpcRxSegment: return "fpc_rx_segment";
    case Cat::fpcTimeout: return "fpc_timeout";
    case Cat::scheduler: return "scheduler";
    case Cat::linkSwitch: return "link_switch";
    case Cat::hostComplex: return "host_complex";
    case Cat::rxParse: return "rx_parse";
    case Cat::packetGen: return "packet_gen";
    case Cat::memory: return "memory";
    case Cat::timerWheel: return "timer_wheel";
    case Cat::app: return "app";
    case Cat::obsSink: return "obs_sink";
    case Cat::harness: return "harness";
    case Cat::otherEvent: return "other_event";
    case Cat::numCats: break;
    }
    return "invalid";
}

/** Accumulated self time and closed scopes per category. */
struct Snapshot
{
    std::uint64_t ns[categoryCount] = {};
    std::uint64_t count[categoryCount] = {};

    std::uint64_t
    totalNs() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t v : ns)
            total += v;
        return total;
    }

    std::uint64_t
    totalCount() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t v : count)
            total += v;
        return total;
    }
};

class Scope;

namespace detail
{

/** The accumulators: what every closed scope has charged so far. */
inline constinit Snapshot block{};
/** The innermost open scope, or null. */
inline constinit Scope *currentScope = nullptr;
inline constinit bool runtimeEnabled = false;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace detail

/** True when profiling is compiled in *and* runtime-enabled. Folds to
 *  constexpr false in F4T_ENABLE_PROFILE=OFF builds. */
inline bool
enabled()
{
    if constexpr (!compiledIn)
        return false;
    return detail::runtimeEnabled;
}

/** Flip the runtime gate (no-op effect when not compiled in). */
inline void
setEnabled(bool on)
{
    detail::runtimeEnabled = on;
}

/**
 * RAII self-time scope. Construction is a no-op unless enabled(); an
 * active scope pushes itself on the scope stack, and its
 * destructor charges elapsed-minus-children to its own category and
 * propagates its elapsed total to the parent's child time.
 */
class Scope
{
#ifdef F4T_ENABLE_PROFILE
  public:
    explicit Scope(Cat cat)
    {
        if (!enabled())
            return;
        active_ = true;
        cat_ = cat;
        parent_ = detail::currentScope;
        detail::currentScope = this;
        startNs_ = detail::nowNs();
    }

    ~Scope()
    {
        if (!active_)
            return;
        std::uint64_t total = detail::nowNs() - startNs_;
        std::uint64_t self = total > childNs_ ? total - childNs_ : 0;
        detail::block.ns[static_cast<std::size_t>(cat_)] += self;
        ++detail::block.count[static_cast<std::size_t>(cat_)];
        detail::currentScope = parent_;
        if (parent_ != nullptr)
            parent_->childNs_ += total;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Scope *parent_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint64_t childNs_ = 0;
    Cat cat_ = Cat::otherEvent;
    bool active_ = false;
#else
  public:
    explicit Scope(Cat) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
#endif
};

/** A copy of the accumulators. All-zero when not compiled in. */
inline Snapshot
capture()
{
    return detail::block;
}

/** capture() minus @p before, element-wise (saturating at zero). */
inline Snapshot
since(const Snapshot &before)
{
    auto minus = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };
    Snapshot now = capture();
    for (std::size_t c = 0; c < categoryCount; ++c) {
        now.ns[c] = minus(now.ns[c], before.ns[c]);
        now.count[c] = minus(now.count[c], before.count[c]);
    }
    return now;
}

} // namespace f4t::sim::prof

#define F4T_PROFILE_CONCAT2(a, b) a##b
#define F4T_PROFILE_CONCAT(a, b) F4T_PROFILE_CONCAT2(a, b)
/** Declare an anonymous profiling scope for the rest of the block. */
#define F4T_PROFILE_SCOPE(cat)                                            \
    ::f4t::sim::prof::Scope F4T_PROFILE_CONCAT(f4t_profile_scope_,        \
                                               __LINE__)(cat)

#endif // F4T_SIM_PROFILE_SCOPE_HH
