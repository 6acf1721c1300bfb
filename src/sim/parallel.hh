/**
 * @file
 * Conservative multi-threaded execution of partitioned simulations.
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
 * synchronizing. At the window barrier the executor drains every
 * channel's mailbox into its destination partition's event queue,
 * then releases the next window.
 *
 * Determinism: each window starts at the earliest pending event across
 * the partitions (EventQueue::nextEventLowerBound(), exact after a
 * partition's run(limit)), or where the last one ended if that is
 * later, and ends one lookahead on. Channel drains replay entries in
 * push order. Window boundaries are therefore a function of every
 * queue's pending entries — callbacks that will fire as no-ops, such
 * as superseded timer arms, included — not of simulated time alone,
 * and where a barrier falls decides when crossing packets become
 * visible to burst folding (DESIGN.md §13). None of that depends on
 * threads, so a run's simulated behavior is identical for any worker
 * count — including one. The single-threaded global-queue path (one
 * Simulation, no executor) remains the reference oracle; the parallel
 * differential fuzzer (tests/fuzz/test_parallel_differential) holds the
 * two to byte-exact application-visible agreement.
 *
 * Threading model: the caller's thread is the coordinator and also
 * executes partition 0's share; additional persistent workers are
 * spawned lazily on the first run() that can use them. Workers park on
 * a generation-counted condition variable between windows. While a
 * worker executes a partition it binds that Simulation as the
 * thread-local current simulation, so f4t_warn()/f4t_inform() tick
 * prefixes stamp the right partition's clock.
 */

#ifndef F4T_SIM_PARALLEL_HH
#define F4T_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
     *  partition. Runs on the coordinator at a barrier. @return the
     *  number of entries delivered. */
    virtual std::size_t drainInto() = 0;

    /** True when no pushed entry is awaiting drainInto(). */
    virtual bool idle() const = 0;

    /** Times the producing side overflowed the channel's fast-path
     *  ring and fell back to the locked spill queue (0 for channels
     *  without one). Monotonic; read by the executor at barriers. */
    virtual std::uint64_t spillsObserved() const { return 0; }
};

/**
 * Wall-clock breakdown of one executor thread, cumulative nanoseconds
 * since the first run(). Populated only while the self-profiler is
 * runtime-enabled (prof::enabled()); index 0 is the coordinator, which
 * reports barrier time instead of idle time (its "idle" is waiting on
 * the done barrier), workers report idle (parked between windows) and
 * no barrier time.
 */
struct WorkerProfile
{
    std::uint64_t busyNs = 0;    ///< executing partition event loops
    std::uint64_t idleNs = 0;    ///< parked waiting for a window release
    std::uint64_t barrierNs = 0; ///< coordinator: waiting for workers
};

class ParallelExecutor
{
  public:
    /**
     * @param threads  worker-thread budget, including the caller's
     *                 thread (0 = one worker per partition). The
     *                 effective count is capped at the partition count;
     *                 partitions are distributed round-robin.
     */
    explicit ParallelExecutor(std::size_t threads = 0)
        : requestedThreads_(threads)
    {}

    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Register a partition. All partitions must start at tick 0 and
     *  may only be advanced through this executor from then on. */
    void addPartition(Simulation &sim, std::string name);

    /** Register a cross-partition conduit (not owned). */
    void addChannel(CrossChannel &channel);

    /** Worker threads a run will actually use (caller included). */
    std::size_t
    effectiveThreads() const
    {
        std::size_t want =
            requestedThreads_ == 0 ? partitions_.size() : requestedThreads_;
        if (want > partitions_.size())
            want = partitions_.size();
        return want == 0 ? 1 : want;
    }

    /** Window length: the minimum lookahead over all channels. */
    Tick lookahead() const;

    /**
     * Advance every partition to @p limit (events at @p limit
     * included, matching Simulation::run). On a global drain — every
     * partition queue empty and every channel idle — the remaining
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
    /** Sum of every channel's ring-overflow spill count. */
    std::uint64_t mailboxSpills() const;

    /**
     * Per-thread busy/idle/barrier wall-clock breakdown (see
     * WorkerProfile). Entry 0 is the coordinator. All zeros unless the
     * self-profiler was runtime-enabled during run(). Call only
     * between run() calls — workers are parked then, so the window
     * barrier's mutex makes the read race-free.
     */
    std::vector<WorkerProfile> workerProfiles() const;

    /**
     * Publish executor counters (windows, cross deliveries, mailbox
     * spills) as Scalars in @p registry, refreshed at every window
     * barrier — StatSampler time-series can plot them in any build,
     * profile or not. @p registry must belong to partition 0 (the
     * coordinator runs that partition and updates the scalars between
     * windows on the same thread, keeping the registry's
     * one-thread-per-partition value contract).
     */
    void registerStats(StatRegistry &registry);

  private:
    struct Partition
    {
        Simulation *sim;
        std::string name;
    };

    /** Run one partition's slice of the window on this thread. */
    void runPartition(Partition &partition, Tick window_end);
    /** Execute [horizon_, window_end] on all partitions, in parallel
     *  when the pool is up. */
    void runWindow(Tick window_end);
    void startWorkers();
    void stopWorkers();
    void workerLoop(std::size_t worker_index);
    /** Earliest possibly-live event tick across all partitions. */
    Tick minNextEvent() const;
    /** Refresh the registerStats() scalars (coordinator thread only). */
    void publishStats();

    /** WorkerProfile on its own cache line: each thread increments its
     *  slot inside the window, so neighbors must not false-share. */
    struct alignas(64) PaddedProfile
    {
        std::uint64_t busyNs = 0;
        std::uint64_t idleNs = 0;
        std::uint64_t barrierNs = 0;
    };

    /** Scalars created by registerStats() (optional, coordinator-owned). */
    struct ExecutorStats
    {
        ExecutorStats(StatRegistry &registry)
            : windows(registry, "executor.windows",
                      "time windows executed (barriers crossed)"),
              crossDelivered(registry, "executor.crossDelivered",
                             "cross-partition entries delivered at barriers"),
              mailboxSpills(registry, "executor.mailboxSpills",
                            "mailbox ring overflows onto the locked spill "
                            "path")
        {}

        Scalar windows;
        Scalar crossDelivered;
        Scalar mailboxSpills;
    };

    const std::size_t requestedThreads_;
    bool started_ = false;
    std::vector<Partition> partitions_;
    std::vector<CrossChannel *> channels_;
    std::vector<PaddedProfile> profiles_;
    std::unique_ptr<ExecutorStats> stats_;

    Tick horizon_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t crossDelivered_ = 0;
    /** Flight recorder: module id + last spill total (delta records). */
    std::uint16_t frModule_ = 0;
    std::uint64_t frLastSpills_ = 0;

    // Generation-counted window barrier shared with the worker pool.
    std::mutex mutex_;
    std::condition_variable startCv_;
    std::condition_variable doneCv_;
    std::vector<std::thread> workers_;
    std::uint64_t windowSeq_ = 0;   ///< bumped to release a window
    std::size_t workersDone_ = 0;   ///< workers finished current window
    Tick windowEnd_ = 0;
    bool shutdown_ = false;
};

} // namespace f4t::sim

#endif // F4T_SIM_PARALLEL_HH
