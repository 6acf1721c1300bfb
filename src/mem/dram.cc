#include "dram.hh"

namespace f4t::mem
{

DramModel::DramModel(sim::Simulation &sim, std::string name,
                     const DramConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      requests_(sim.stats(), statName("requests"), "memory requests served"),
      bytes_(sim.stats(), statName("bytes"), "bytes transferred"),
      queueDelay_(sim.stats(), statName("queueDelay"),
                  "ticks spent waiting for the channel")
{
    f4t_assert(config_.bandwidthBytesPerSec > 0,
               "DRAM model needs positive bandwidth");
}

sim::Tick
DramModel::accessTime(std::size_t bytes)
{
    ++requests_;
    bytes_ += bytes;

    sim::Tick start = std::max(now(), channelBusyUntil_);
    queueDelay_.sample(static_cast<double>(start - now()));

    double service_seconds =
        static_cast<double>(bytes) / config_.bandwidthBytesPerSec;
    sim::Tick service = sim::secondsToTicks(service_seconds);
    if (service < config_.minServicePerRequest)
        service = config_.minServicePerRequest;
    channelBusyUntil_ = start + service;
    return channelBusyUntil_ + config_.accessLatency;
}

sim::Tick
DramModel::access(std::size_t bytes, sim::SmallFunction on_complete)
{
    sim::Tick done = accessTime(bytes);
    if (on_complete)
        queue().scheduleCallback(done, sim::prof::Cat::memory,
                                 "dram.complete", std::move(on_complete));
    return done;
}

} // namespace f4t::mem
