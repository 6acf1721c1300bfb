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
        frModule_ = fr::internModule("parallel_executor");
    }
    const Tick window = lookahead();
    f4t_assert(window > 0 && window != maxTick,
               "parallel run needs at least one cross channel");

    // A wedged event makes no progress to the next barrier, so the
    // wall-clock watchdog turns would-be CI hangs into a flight
    // recorder dump plus a fast abort.
    fr::armWatchdog(fr::defaultWatchdogSeconds());

    while (true) {
        for (CrossChannel *channel : channels_)
            crossDelivered_ += channel->drainInto();

        // Channels are empty now, so the next event anywhere is a
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
        fr::record(fr::Kind::parBarrier, horizon_, frModule_, 0,
                   windows_, window_end);
        fr::beat();
        // StatSampler series inside the next window read fresh
        // executor counters.
        publishStats();
        if (window_end == limit)
            break;
    }
    publishStats();
    fr::disarmWatchdog();
    return horizon_;
}

void
ParallelExecutor::runWindow(Tick window_end)
{
    // Clock reads only while the self-profiler is on: the executor's
    // own introspection must not tax un-profiled runs.
    const bool timed = prof::enabled();
    std::uint64_t t0 = timed ? prof::detail::nowNs() : 0;
    for (Partition &partition : partitions_) {
        // Bind the partition as the current simulation so log and
        // trace tick prefixes stamp its clock.
        detail::pushCurrentSim(partition.sim, partitionNow);
        partition.sim->run(window_end);
        detail::popCurrentSim(partition.sim);
    }
    if (timed)
        profile_.busyNs += prof::detail::nowNs() - t0;
}

} // namespace f4t::sim
