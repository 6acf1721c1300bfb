#include "sim/parallel.hh"

#include <algorithm>

#include "sim/flight_recorder.hh"
#include "sim/profile_scope.hh"

namespace f4t::sim
{

namespace
{

/** Tick hook matching the one Simulation's constructor registers. */
std::uint64_t
partitionNow(const void *sim)
{
    return static_cast<const Simulation *>(sim)->now();
}

} // namespace

ParallelExecutor::~ParallelExecutor()
{
    stopWorkers();
}

void
ParallelExecutor::addPartition(Simulation &sim, std::string name)
{
    f4t_assert(!started_, "cannot add partition '%s' after the first run",
               name.c_str());
    f4t_assert(sim.now() == 0,
               "partition '%s' already advanced to %llu before registration",
               name.c_str(), static_cast<unsigned long long>(sim.now()));
    partitions_.push_back(Partition{&sim, std::move(name)});
}

void
ParallelExecutor::addChannel(CrossChannel &channel)
{
    f4t_assert(!started_, "cannot add channels after the first run");
    f4t_assert(channel.lookahead() > 0,
               "cross channel needs positive lookahead");
    channels_.push_back(&channel);
}

Tick
ParallelExecutor::lookahead() const
{
    Tick lookahead = maxTick;
    for (const CrossChannel *channel : channels_)
        lookahead = std::min(lookahead, channel->lookahead());
    return lookahead;
}

std::uint64_t
ParallelExecutor::eventsProcessed() const
{
    std::uint64_t total = 0;
    for (const Partition &partition : partitions_)
        total += partition.sim->queue().eventsProcessed();
    return total;
}

Tick
ParallelExecutor::minNextEvent() const
{
    Tick next = maxTick;
    for (const Partition &partition : partitions_)
        next = std::min(next,
                        partition.sim->queue().nextEventLowerBound());
    return next;
}

std::uint64_t
ParallelExecutor::mailboxSpills() const
{
    std::uint64_t total = 0;
    for (const CrossChannel *channel : channels_)
        total += channel->spillsObserved();
    return total;
}

std::vector<WorkerProfile>
ParallelExecutor::workerProfiles() const
{
    std::vector<WorkerProfile> out(profiles_.size());
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
        out[i].busyNs = profiles_[i].busyNs;
        out[i].idleNs = profiles_[i].idleNs;
        out[i].barrierNs = profiles_[i].barrierNs;
    }
    return out;
}

void
ParallelExecutor::registerStats(StatRegistry &registry)
{
    f4t_assert(stats_ == nullptr, "executor stats already registered");
    stats_ = std::make_unique<ExecutorStats>(registry);
    publishStats();
}

void
ParallelExecutor::publishStats()
{
    if (stats_ == nullptr)
        return;
    stats_->windows = static_cast<double>(windows_);
    stats_->crossDelivered = static_cast<double>(crossDelivered_);
    stats_->mailboxSpills = static_cast<double>(mailboxSpills());
}

Tick
ParallelExecutor::run(Tick limit)
{
    f4t_assert(!partitions_.empty(), "executor has no partitions");
    f4t_assert(limit != maxTick,
               "parallel run needs a finite limit (windows are derived "
               "from it)");
    if (!started_) {
        started_ = true;
        profiles_.resize(effectiveThreads());
        startWorkers();
        frModule_ = fr::internModule("parallel_executor");
    }
    const Tick window = lookahead();
    f4t_assert(window > 0 && window != maxTick,
               "parallel run needs at least one cross channel");

    // A wedged window barrier makes no event progress, so the
    // wall-clock watchdog turns would-be CI hangs into a flight
    // recorder dump plus a fast abort.
    fr::armWatchdog(fr::defaultWatchdogSeconds());

    while (true) {
        for (CrossChannel *channel : channels_)
            crossDelivered_ += channel->drainInto();

        // Mailboxes are empty now, so the next event anywhere is a
        // partition-local one. When there is none on this side of the
        // limit — idle gap reaching past it, or a full global drain —
        // fast-forward every partition's clock to the limit (no events
        // fire), exactly what the serial EventQueue::run(limit) does
        // to now_ when its queue empties. Phase boundaries in drivers
        // that alternate run() with model pokes therefore land on the
        // same ticks under either kernel.
        Tick next = minNextEvent();
        if (next > limit) {
            if (horizon_ < limit) {
                runWindow(limit);
                horizon_ = limit;
            }
            break;
        }

        // Jump over globally idle gaps (retransmission timeouts, app
        // think time): barriers are only needed where events exist.
        // next can trail horizon_ when a stale (descheduled) entry
        // feeds the lower bound — never move backwards.
        Tick start = std::max(horizon_, next);
        Tick window_end =
            limit - start > window ? start + window : limit;
        runWindow(window_end);
        horizon_ = window_end;
        ++windows_;
        // Workers are parked here (the barrier's happens-before edge),
        // so cross-channel spill totals are stable to read.
        fr::record(fr::Kind::parBarrier, horizon_, frModule_, 0,
                   windows_, window_end);
        fr::beat();
        std::uint64_t spills = mailboxSpills();
        if (spills != frLastSpills_) {
            fr::record(fr::Kind::mailboxSpill, horizon_, frModule_, 0,
                       spills - frLastSpills_, spills);
            frLastSpills_ = spills;
        }
        // Workers are parked at this point, so the coordinator may
        // touch partition 0's registry: StatSampler series inside the
        // next window read fresh executor counters.
        publishStats();
        if (window_end == limit)
            break;
    }
    publishStats();
    fr::disarmWatchdog();
    return horizon_;
}

void
ParallelExecutor::runPartition(Partition &partition, Tick window_end)
{
    // Bind the partition as this thread's current simulation so log
    // and trace tick prefixes stamp the right clock (the Simulation
    // constructor bound it on the *constructing* thread only).
    detail::pushCurrentSim(partition.sim, partitionNow);
    partition.sim->run(window_end);
    detail::popCurrentSim(partition.sim);
}

void
ParallelExecutor::runWindow(Tick window_end)
{
    std::size_t threads = effectiveThreads();
    // Per-window clock reads only while the self-profiler is on: the
    // executor's own introspection must not tax un-profiled runs.
    const bool timed = prof::enabled();
    if (threads <= 1 || workers_.empty()) {
        std::uint64_t t0 = timed ? prof::detail::nowNs() : 0;
        for (Partition &partition : partitions_)
            runPartition(partition, window_end);
        if (timed)
            profiles_[0].busyNs += prof::detail::nowNs() - t0;
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        windowEnd_ = window_end;
        workersDone_ = 0;
        ++windowSeq_;
    }
    startCv_.notify_all();

    // The coordinator doubles as worker 0.
    std::uint64_t t0 = timed ? prof::detail::nowNs() : 0;
    for (std::size_t i = 0; i < partitions_.size(); i += threads)
        runPartition(partitions_[i], window_end);
    std::uint64_t t1 = timed ? prof::detail::nowNs() : 0;
    if (timed)
        profiles_[0].busyNs += t1 - t0;

    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&] { return workersDone_ == workers_.size(); });
    if (timed)
        profiles_[0].barrierNs += prof::detail::nowNs() - t1;
}

void
ParallelExecutor::startWorkers()
{
    std::size_t threads = effectiveThreads();
    if (threads <= 1)
        return;
    workers_.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
ParallelExecutor::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    startCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
}

void
ParallelExecutor::workerLoop(std::size_t worker_index)
{
    std::size_t threads = effectiveThreads();
    std::uint64_t seen = 0;
    while (true) {
        bool timed = prof::enabled();
        Tick window_end;
        std::uint64_t park0 = timed ? prof::detail::nowNs() : 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            startCv_.wait(lock, [&] {
                return shutdown_ || windowSeq_ != seen;
            });
            if (shutdown_)
                return;
            seen = windowSeq_;
            window_end = windowEnd_;
        }
        std::uint64_t t0 = timed ? prof::detail::nowNs() : 0;
        if (timed)
            profiles_[worker_index].idleNs += t0 - park0;
        for (std::size_t i = worker_index; i < partitions_.size();
             i += threads) {
            runPartition(partitions_[i], window_end);
        }
        if (timed)
            profiles_[worker_index].busyNs += prof::detail::nowNs() - t0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++workersDone_;
        }
        doneCv_.notify_one();
    }
}

} // namespace f4t::sim
