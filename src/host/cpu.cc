#include "cpu.hh"

namespace f4t::host
{

CpuCore::CpuCore(sim::Simulation &sim, std::string name, double frequency_hz)
    : SimObject(sim, std::move(name)), frequencyHz_(frequency_hz)
{
    for (std::size_t i = 0; i < numCategories; ++i) {
        auto category = static_cast<tcp::CostCategory>(i);
        cycles_[i] = std::make_unique<sim::Scalar>(
            sim.stats(), statName(std::string("cycles.") +
                                  tcp::toString(category)),
            "cycles consumed in this category");
    }
}

void
CpuCore::charge(tcp::CostCategory category, double cycles)
{
    if (cycles <= 0)
        return;
    *cycles_[static_cast<std::size_t>(category)] += cycles;
    sim::Tick duration = static_cast<sim::Tick>(
        cycles / frequencyHz_ * static_cast<double>(sim::ticksPerSecond));
    sim::Tick start = busyUntil_ > now() ? busyUntil_ : now();
    busyUntil_ = start + duration;
}

void
CpuCore::runAfterCharge(tcp::CostCategory category, double cycles,
                        sim::SmallFunction fn)
{
    charge(category, cycles);
    sim::Tick when = busyUntil_ > now() ? busyUntil_ : now();
    queue().scheduleCallback(when, sim::prof::Cat::hostComplex,
                             "cpu.charged", std::move(fn));
}

void
CpuCore::runWhenFree(sim::SmallFunction fn)
{
    sim::Tick when = busyUntil_ > now() ? busyUntil_ : now();
    queue().scheduleCallback(when, sim::prof::Cat::hostComplex, "cpu.free",
                             std::move(fn));
}

double
CpuCore::categoryCycles(tcp::CostCategory category) const
{
    return cycles_[static_cast<std::size_t>(category)]->value();
}

double
CpuCore::totalBusyCycles() const
{
    double total = 0;
    for (const auto &scalar : cycles_)
        total += scalar->value();
    return total;
}

double
CpuCore::utilization(sim::Tick window_ticks) const
{
    if (window_ticks == 0)
        return 0.0;
    double window_cycles = frequencyHz_ * sim::ticksToSeconds(window_ticks);
    double busy = totalBusyCycles();
    return busy >= window_cycles ? 1.0 : busy / window_cycles;
}

CpuComplex::CpuComplex(sim::Simulation &sim, std::string name,
                       std::size_t cores, double frequency_hz)
    : SimObject(sim, std::move(name))
{
    for (std::size_t i = 0; i < cores; ++i) {
        cores_.push_back(std::make_unique<CpuCore>(
            sim, this->name() + ".core" + std::to_string(i),
            frequency_hz));
    }
}

double
CpuComplex::totalBusyCycles() const
{
    double total = 0;
    for (const auto &core : cores_)
        total += core->totalBusyCycles();
    return total;
}

} // namespace f4t::host
