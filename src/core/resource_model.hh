/**
 * @file
 * Analytical FPGA resource model (Section 4.7, Figure 7b).
 *
 * We cannot run Vivado synthesis, so the per-module LUT/FF/BRAM costs
 * are reconstructed from the paper's published utilization of the
 * Xilinx Alveo U280: FtEngine with one FPC uses 16 % LUTs / 11 % FFs /
 * 27 % BRAMs, and with eight FPCs 23 % / 15 % / 32 %. The model keeps
 * a per-component breakdown whose sums reproduce those totals and
 * scales with the FPC count, so configuration studies (more FPCs, more
 * flows) report believable budgets.
 */

#ifndef F4T_CORE_RESOURCE_MODEL_HH
#define F4T_CORE_RESOURCE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace f4t::core
{

/** Absolute resource capacity of the Alveo U280. */
struct U280Capacity
{
    static constexpr std::uint64_t luts = 1'303'680;
    static constexpr std::uint64_t ffs = 2'607'360;
    static constexpr std::uint64_t brams = 2'016; ///< 36 Kb blocks
};

struct ResourceUsage
{
    std::string component;
    std::uint64_t luts = 0;
    std::uint64_t ffs = 0;
    std::uint64_t brams = 0;

    double lutPercent() const
    {
        return 100.0 * static_cast<double>(luts) / U280Capacity::luts;
    }
    double ffPercent() const
    {
        return 100.0 * static_cast<double>(ffs) / U280Capacity::ffs;
    }
    double bramPercent() const
    {
        return 100.0 * static_cast<double>(brams) / U280Capacity::brams;
    }
};

class ResourceModel
{
  public:
    /**
     * Build the component table for a configuration.
     * @param num_fpcs      parallel FPCs
     * @param flows_per_fpc TCB table depth per FPC
     * @param hbm           HBM (vs DDR4) memory controller
     */
    ResourceModel(std::size_t num_fpcs, std::size_t flows_per_fpc,
                  bool hbm);

    ResourceUsage total() const;

    /** Formatted table matching Fig. 7b's layout. */
    std::string report() const;

  private:
    std::vector<ResourceUsage> components_;
};

} // namespace f4t::core

#endif // F4T_CORE_RESOURCE_MODEL_HH
