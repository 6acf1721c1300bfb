/**
 * @file
 * On-board DRAM model: DDR4 (38 GB/s) or HBM (460 GB/s).
 *
 * The memory manager stores the full 64 K-flow TCB array here. The
 * model charges a fixed access latency plus bandwidth-limited service
 * time per request, with requests queueing behind one another exactly
 * like a single memory channel. Fig. 13's DRAM-vs-HBM divergence comes
 * from this serialization: at high swap rates the DDR4 model's service
 * rate for TCB-sized transfers becomes the throughput ceiling.
 */

#ifndef F4T_MEM_DRAM_HH
#define F4T_MEM_DRAM_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulation.hh"

namespace f4t::mem
{

/** Preset configurations matching the U280's memory options. */
struct DramConfig
{
    double bandwidthBytesPerSec = 38e9; ///< DDR4 on the U280
    sim::Tick accessLatency = sim::nanosecondsToTicks(120);
    /**
     * Minimum channel occupancy per request, independent of size —
     * models row activation / random-access inefficiency. Small random
     * TCB transfers are bounded by this, not the peak bandwidth:
     * DDR4 with one channel serializes ~100 ns (tRC-class) per random
     * 128 B access, while HBM's pseudo-channels pipeline them.
     */
    sim::Tick minServicePerRequest = sim::nanosecondsToTicks(30);

    static DramConfig
    ddr4()
    {
        // Random TCB-sized accesses pay ~tRC per row cycle on the
        // single DDR4 channel: ~100 ns of channel occupancy each.
        return DramConfig{38e9, sim::nanosecondsToTicks(120),
                          sim::nanosecondsToTicks(100)};
    }

    static DramConfig
    hbm()
    {
        return DramConfig{460e9, sim::nanosecondsToTicks(100),
                          sim::nanosecondsToTicks(2)};
    }
};

/**
 * Bandwidth/latency memory channel. Requests complete via callback
 * after queueing + service + access latency.
 */
class DramModel : public sim::SimObject
{
  public:
    DramModel(sim::Simulation &sim, std::string name,
              const DramConfig &config);

    /**
     * Issue a request for @p bytes; @p on_complete runs when the data
     * is available (reads) or durably written (writes).
     * @return the completion tick.
     */
    sim::Tick access(std::size_t bytes, sim::SmallFunction on_complete);

    /** Completion tick for a request issued now, without callback. */
    sim::Tick accessTime(std::size_t bytes);

    std::uint64_t requestCount() const { return requests_.value(); }
    std::uint64_t bytesTransferred() const { return bytes_.value(); }

  private:
    DramConfig config_;
    sim::Tick channelBusyUntil_ = 0;

    sim::Counter requests_;
    sim::Counter bytes_;
    sim::Histogram queueDelay_;
};

} // namespace f4t::mem

#endif // F4T_MEM_DRAM_HH
