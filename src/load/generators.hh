/**
 * @file
 * Deterministic workload primitives for the open-loop load layer:
 * arrival processes (fixed-period, Poisson, log-normal inter-arrival)
 * and flow/value-size samplers (fixed, bounded Pareto, log-normal).
 *
 * Determinism contract: every stochastic sequence is drawn from its
 * own substream RNG, seeded by mixing the scenario seed with a stream
 * id (substreamSeed). A generator's sequence is therefore a pure
 * function of (seed, streamId, draw index) — independent of how many
 * other generators exist, the order their draws interleave in
 * simulated time, and how the world is partitioned.
 * The statistical unit tests pin both the analytic moments and exact
 * reproducibility; the parallel differential relies on the
 * interleaving independence.
 *
 * Specs are plain tagged values (copyable, comparable by field) so
 * scenario tables can be built statically; the Process/Sampler
 * classes materialize a spec plus a substream seed into a drawable
 * object.
 */

#ifndef F4T_LOAD_GENERATORS_HH
#define F4T_LOAD_GENERATORS_HH

#include <cstdint>

#include "sim/random.hh"
#include "sim/types.hh"

namespace f4t::load
{

/**
 * Mix a scenario seed with a stream id into an independent substream
 * seed (SplitMix64 finalizer — the same mixer sim::Random uses to
 * expand seeds, so nearby ids land in unrelated states).
 */
constexpr std::uint64_t
substreamSeed(std::uint64_t seed, std::uint64_t stream_id)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream_id + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** How long until the next request arrives. */
struct ArrivalSpec
{
    enum class Kind : std::uint8_t
    {
        fixed,     ///< constant period (synchronized incast rounds)
        poisson,   ///< exponential inter-arrival at a mean rate
        logNormal, ///< heavy-tailed bursty inter-arrival
    };

    Kind kind = Kind::fixed;
    sim::Tick period = sim::microsecondsToTicks(10); ///< fixed
    double ratePerSec = 0.0;                         ///< poisson
    double medianGapUs = 0.0;                        ///< logNormal
    double sigma = 0.0;                              ///< logNormal

    static ArrivalSpec
    fixedEvery(sim::Tick period)
    {
        ArrivalSpec s;
        s.kind = Kind::fixed;
        s.period = period;
        return s;
    }

    static ArrivalSpec
    poisson(double rate_per_sec)
    {
        ArrivalSpec s;
        s.kind = Kind::poisson;
        s.ratePerSec = rate_per_sec;
        return s;
    }

    /** Log-normal gaps with the given *median*; mean is
     *  median * exp(sigma^2 / 2). */
    static ArrivalSpec
    logNormalGap(double median_gap_us, double sigma)
    {
        ArrivalSpec s;
        s.kind = Kind::logNormal;
        s.medianGapUs = median_gap_us;
        s.sigma = sigma;
        return s;
    }

    /** Analytic mean inter-arrival gap in ticks. */
    double meanGapTicks() const;
};

class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalSpec &spec, std::uint64_t substream_seed)
        : spec_(spec), rng_(substream_seed)
    {}

    /** Ticks from the previous arrival to the next one (>= 1 for the
     *  stochastic kinds, so arrivals always advance time). */
    sim::Tick nextGap();

    const ArrivalSpec &spec() const { return spec_; }

  private:
    ArrivalSpec spec_;
    sim::Random rng_;
};

/** How many value bytes a request carries. */
struct SizeSpec
{
    enum class Kind : std::uint8_t
    {
        fixed,
        boundedPareto, ///< heavy-tailed flow sizes, truncated
        logNormal,     ///< clamped log-normal
    };

    Kind kind = Kind::fixed;
    std::uint32_t bytes = 1024;      ///< fixed
    double alpha = 1.3;              ///< boundedPareto shape
    std::uint32_t minBytes = 64;     ///< lower truncation / clamp
    std::uint32_t maxBytes = 65536;  ///< upper truncation / clamp
    double medianBytes = 0.0;        ///< logNormal
    double sigma = 0.0;              ///< logNormal

    static SizeSpec
    fixedSize(std::uint32_t bytes)
    {
        SizeSpec s;
        s.kind = Kind::fixed;
        s.bytes = bytes;
        return s;
    }

    static SizeSpec
    boundedPareto(double alpha, std::uint32_t min_bytes,
                  std::uint32_t max_bytes)
    {
        SizeSpec s;
        s.kind = Kind::boundedPareto;
        s.alpha = alpha;
        s.minBytes = min_bytes;
        s.maxBytes = max_bytes;
        return s;
    }

    static SizeSpec
    logNormalSize(double median_bytes, double sigma,
                  std::uint32_t min_bytes, std::uint32_t max_bytes)
    {
        SizeSpec s;
        s.kind = Kind::logNormal;
        s.medianBytes = median_bytes;
        s.sigma = sigma;
        s.minBytes = min_bytes;
        s.maxBytes = max_bytes;
        return s;
    }

    /** Analytic mean of the (truncated) distribution, in bytes.
     *  For logNormal this is the *unclamped* mean — the statistical
     *  test picks parameters where clamping is negligible. */
    double meanBytes() const;
};

class SizeSampler
{
  public:
    SizeSampler(const SizeSpec &spec, std::uint64_t substream_seed)
        : spec_(spec), rng_(substream_seed)
    {}

    std::uint32_t next();

    const SizeSpec &spec() const { return spec_; }

  private:
    SizeSpec spec_;
    sim::Random rng_;
};

} // namespace f4t::load

#endif // F4T_LOAD_GENERATORS_HH
