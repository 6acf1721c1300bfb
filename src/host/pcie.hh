/**
 * @file
 * PCIe interconnect model between the host and FtEngine.
 *
 * Two independent bandwidth-limited directions (host-to-device reads
 * by the engine's DMA engine, device-to-host writes), each charging a
 * per-transaction latency. The Fig. 9 / Fig. 16a ceilings — 16 B
 * requests bounded by command + payload DMA, and ~900 Mrps only after
 * shrinking commands from 16 B to 8 B — are produced by this model.
 *
 * MMIO doorbell writes are posted: they cost host CPU cycles (charged
 * by the F4T library) and a small propagation delay here.
 */

#ifndef F4T_HOST_PCIE_HH
#define F4T_HOST_PCIE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulation.hh"

namespace f4t::host
{

struct PcieConfig
{
    /** Effective data bandwidth per direction (Gen3 x16, ~75 % eff.). */
    double bandwidthBytesPerSec = 13.5e9;
    /** DMA round-trip latency per transaction. */
    sim::Tick dmaLatency = sim::nanosecondsToTicks(700);
    /** Per-transaction header overhead charged to bandwidth. */
    std::size_t transactionOverheadBytes = 24;
};

class PcieModel : public sim::SimObject
{
  public:
    /** Doorbell propagation (posted MMIO write). */
    static constexpr sim::Tick mmioLatency = sim::nanosecondsToTicks(400);

    PcieModel(sim::Simulation &sim, std::string name,
              const PcieConfig &config = {});

    /** Host-to-device transfer (engine reads commands / payload). */
    sim::Tick hostToDevice(std::size_t bytes,
                           sim::SmallFunction on_complete = nullptr);

    /** Device-to-host transfer (completions / received payload). */
    sim::Tick deviceToHost(std::size_t bytes,
                           sim::SmallFunction on_complete = nullptr);

    /** Doorbell write; returns when the device observes it. */
    sim::Tick mmioDoorbell(sim::SmallFunction on_observed = nullptr);

    std::uint64_t hostToDeviceBytes() const { return h2dBytes_.value(); }
    std::uint64_t deviceToHostBytes() const { return d2hBytes_.value(); }

  private:
    sim::Tick transfer(std::size_t bytes, sim::Tick &busy_until,
                       sim::Counter &counter, const char *what,
                       sim::SmallFunction on_complete);

    PcieConfig config_;
    sim::Tick h2dBusyUntil_ = 0;
    sim::Tick d2hBusyUntil_ = 0;

    sim::Counter h2dBytes_;
    sim::Counter d2hBytes_;
    sim::Counter transactions_;
};

} // namespace f4t::host

#endif // F4T_HOST_PCIE_HH
