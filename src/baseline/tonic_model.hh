/**
 * @file
 * Analytic model of TONIC [18] — the "w/o-RMW" reference design of
 * Fig. 2 and the connectivity comparison point of Fig. 13.
 *
 * TONIC avoids RMW stalls by forcing every RMW to complete in one
 * 10 ns cycle (100 MHz): it transfers exactly one fixed 128 B segment
 * per cycle, stores TCBs only in SRAM (~1 K flows), and admits only
 * single-cycle TCP algorithms. The idealized "w/o-RMW" variant used in
 * the paper's motivation additionally assumes arbitrary-length
 * requests — one request per cycle regardless of size.
 */

#ifndef F4T_BASELINE_TONIC_MODEL_HH
#define F4T_BASELINE_TONIC_MODEL_HH

#include <cstddef>

namespace f4t::baseline
{

struct TonicModel
{
    static constexpr double clockHz = 100e6;
    static constexpr std::size_t segmentBytes = 128;
    static constexpr std::size_t maxFlows = 1024;
    static constexpr unsigned maxAlgorithmLatencyCycles = 1;

    /** Idealized w/o-RMW goodput for a given request size. */
    double
    idealThroughputBps(std::size_t request_bytes) const
    {
        return clockHz * static_cast<double>(request_bytes) * 8.0;
    }

    /**
     * Native TONIC: requests are chopped into fixed segments; a
     * request needs ceil(size / 128) cycles.
     */
    double
    nativeRequestsPerSecond(std::size_t request_bytes) const
    {
        std::size_t segments =
            (request_bytes + segmentBytes - 1) / segmentBytes;
        return clockHz / static_cast<double>(segments);
    }

    /** Can TONIC run an algorithm with this processing latency? */
    bool
    supportsAlgorithm(unsigned latency_cycles) const
    {
        return latency_cycles <= maxAlgorithmLatencyCycles;
    }
};

} // namespace f4t::baseline

#endif // F4T_BASELINE_TONIC_MODEL_HH
