/**
 * @file
 * Conservative time-window execution of partitioned simulations.
 *
 * A ParallelExecutor advances several independent Simulation instances
 * ("partitions") in lockstep time windows. Partitions interact only
 * through registered CrossChannels — timestamped event conduits whose
 * modeled delivery latency is bounded below by a positive lookahead
 * (the link propagation delay for a split cable, the PCIe round trip
 * for a future host/engine split). Classic conservative parallel DES
 * follows: any event a partition executes inside the window
 * [T, T + L] can only produce cross-partition effects at or after
 * T + L, so every partition may execute the whole window without
 * looking at the others. At the window barrier the executor drains
 * every channel into its destination partition's event queue, then
 * starts the next window.
 *
 * Determinism: each window starts at the earliest pending event across
 * the partitions (EventQueue::nextEventLowerBound(), exact after a
 * partition's run(limit)), or where the last one ended if that is
 * later, and ends one lookahead on. Channel drains replay entries in
 * push order. Window boundaries are therefore a function of every
 * queue's pending entries — callbacks that will fire as no-ops, such
 * as superseded timer arms, included — not of simulated time alone,
 * and where a barrier falls decides when crossing packets become
 * visible to burst folding (DESIGN.md §13). The single global-queue
 * path (one Simulation, no executor) remains the reference oracle; the
 * parallel differential fuzzer (tests/fuzz/test_parallel_differential)
 * holds the two to byte-exact application-visible agreement.
 *
 * Everything runs on the caller's thread: each window runs the
 * partitions one after another, in registration order, each bound as
 * the thread's current simulation so f4t_warn()/f4t_inform() tick
 * prefixes stamp the right partition's clock.
 */

#ifndef F4T_SIM_PARALLEL_HH
#define F4T_SIM_PARALLEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace f4t::sim
{

/**
 * Executor-facing interface of a cross-partition event conduit
 * (implemented by net::LinkCrossing for split cables). The producing
 * partition pushes timestamped entries during a window; the executor
 * calls drainInto() at the barrier to replay them into the consuming
 * partition's event queue.
 */
class CrossChannel
{
  public:
    virtual ~CrossChannel() = default;

    /**
     * Minimum simulated delay between an event's send tick in the
     * producing partition and its effect tick in the consuming one.
     * Must be positive and constant for the life of the run; the
     * executor's window length is the minimum over all channels.
     */
    virtual Tick lookahead() const = 0;

    /** Replay all pending entries, in push order, into the consuming
     *  partition. Runs at a barrier. @return the number of entries
     *  delivered. */
    virtual std::size_t drainInto() = 0;
};

/**
 * Wall-clock breakdown of an executor thread, cumulative nanoseconds
 * since the first run(). busyNs is populated only while the
 * self-profiler is runtime-enabled (prof::enabled()). Every partition
 * runs on the caller's thread, so nothing is ever idle or waiting at a
 * barrier: idleNs and barrierNs stay 0. Only perfbench/runner.cc reads
 * it; ROADMAP item 8 deletes it with that reader.
 */
struct WorkerProfile
{
    std::uint64_t busyNs = 0;    ///< executing partition event loops
    std::uint64_t idleNs = 0;    ///< always 0 (no thread parks)
    std::uint64_t barrierNs = 0; ///< always 0 (no thread waits)
};

class ParallelExecutor
{
  public:
    ParallelExecutor() = default;

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Register a partition. All partitions must start at tick 0 and
     *  may only be advanced through this executor from then on. */
    void addPartition(Simulation &sim, std::string name);

    /** Register a cross-partition conduit (not owned). */
    void addChannel(CrossChannel &channel);

    /** Threads a run uses: always 1, the caller's. Only
     *  perfbench/runner.cc reads it; ROADMAP item 8 deletes it. */
    std::size_t effectiveThreads() const { return 1; }

    /** Window length: the minimum lookahead over all channels. */
    Tick lookahead() const;

    /**
     * Advance every partition to @p limit (events at @p limit
     * included, matching Simulation::run). On a global drain — every
     * partition queue empty and every channel drained — the remaining
     * clocks still fast-forward to @p limit, exactly as the serial
     * EventQueue::run(limit) pins now() to its limit when the queue
     * empties, so phase boundaries agree between the two kernels.
     * @return the barrier tick reached (always @p limit).
     */
    Tick run(Tick limit);

    /** Advance all partitions a further @p duration ticks. */
    Tick runFor(Tick duration) { return run(now() + duration); }

    /** The last window barrier (every partition's clock ≥ this). */
    Tick now() const { return horizon_; }

    /** Events processed across all partitions. */
    std::uint64_t eventsProcessed() const;

    // --- introspection (tests, perf harnesses) --------------------------
    /** Windows executed (== barriers crossed) since construction. */
    std::uint64_t windowsRun() const { return windows_; }
    /** Cross-partition entries delivered at barriers. */
    std::uint64_t crossEventsDelivered() const { return crossDelivered_; }
    /** Always 0: channels have no ring to overflow. Only
     *  perfbench/runner.cc reads it; ROADMAP item 8 deletes it. */
    std::uint64_t mailboxSpills() const { return 0; }

    /**
     * The caller's thread's busy time (see WorkerProfile), as the one
     * entry. All zeros unless the self-profiler was runtime-enabled
     * during run(). Only perfbench/runner.cc reads it; ROADMAP item 8
     * deletes it.
     */
    std::vector<WorkerProfile> workerProfiles() const { return {profile_}; }

    /**
     * Publish executor counters (windows, cross deliveries) as Scalars
     * in @p registry, refreshed at every window barrier — StatSampler
     * time-series can plot them in any build, profile or not.
     */
    void registerStats(StatRegistry &registry);

  private:
    struct Partition
    {
        Simulation *sim;
        std::string name;
    };

    /** Execute [horizon_, window_end] on every partition, in
     *  registration order. */
    void runWindow(Tick window_end);
    /** Earliest possibly-live event tick across all partitions. */
    Tick minNextEvent() const;
    /** Refresh the registerStats() scalars. */
    void publishStats();

    /** Scalars created by registerStats() (optional). */
    struct ExecutorStats
    {
        ExecutorStats(StatRegistry &registry)
            : windows(registry, "executor.windows",
                      "time windows executed (barriers crossed)"),
              crossDelivered(registry, "executor.crossDelivered",
                             "cross-partition entries delivered at barriers")
        {}

        Scalar windows;
        Scalar crossDelivered;
    };

    bool started_ = false;
    std::vector<Partition> partitions_;
    std::vector<CrossChannel *> channels_;
    WorkerProfile profile_;
    std::unique_ptr<ExecutorStats> stats_;

    Tick horizon_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t crossDelivered_ = 0;
    /** Flight recorder module id of the barrier records. */
    std::uint16_t frModule_ = 0;
};

} // namespace f4t::sim

#endif // F4T_SIM_PARALLEL_HH
