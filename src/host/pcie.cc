#include "pcie.hh"

namespace f4t::host
{

PcieModel::PcieModel(sim::Simulation &sim, std::string name,
                     const PcieConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      h2dBytes_(sim.stats(), statName("h2dBytes"),
                "host-to-device bytes transferred"),
      d2hBytes_(sim.stats(), statName("d2hBytes"),
                "device-to-host bytes transferred"),
      transactions_(sim.stats(), statName("transactions"),
                    "DMA transactions issued")
{}

sim::Tick
PcieModel::transfer(std::size_t bytes, sim::Tick &busy_until,
                    sim::Counter &counter, const char *what,
                    sim::SmallFunction on_complete)
{
    ++transactions_;
    counter += bytes;
    std::size_t wire_bytes = bytes + config_.transactionOverheadBytes;
    double seconds =
        static_cast<double>(wire_bytes) / config_.bandwidthBytesPerSec;
    sim::Tick start = busy_until > now() ? busy_until : now();
    busy_until = start + sim::secondsToTicks(seconds);
    sim::Tick done = busy_until + config_.dmaLatency;
    // The whole transaction is known at issue time, so the span can be
    // drawn up front.
    probeSpan(sim::fr::Kind::pcieDma, 0, bytes, &counter == &d2hBytes_,
              start, done);
    if (on_complete)
        queue().scheduleCallback(done, sim::prof::Cat::hostComplex, what,
                                 std::move(on_complete));
    return done;
}

sim::Tick
PcieModel::hostToDevice(std::size_t bytes, sim::SmallFunction on_complete)
{
    return transfer(bytes, h2dBusyUntil_, h2dBytes_, "pcie.h2d",
                    std::move(on_complete));
}

sim::Tick
PcieModel::deviceToHost(std::size_t bytes, sim::SmallFunction on_complete)
{
    return transfer(bytes, d2hBusyUntil_, d2hBytes_, "pcie.d2h",
                    std::move(on_complete));
}

sim::Tick
PcieModel::mmioDoorbell(sim::SmallFunction on_observed)
{
    sim::Tick done = now() + mmioLatency;
    probe(sim::fr::Kind::pcieDoorbell, 0);
    if (on_observed)
        queue().scheduleCallback(done, sim::prof::Cat::hostComplex,
                                 "pcie.doorbell", std::move(on_observed));
    return done;
}

} // namespace f4t::host
