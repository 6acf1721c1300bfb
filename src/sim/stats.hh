/**
 * @file
 * Lightweight named-statistics framework.
 *
 * Modules register Scalar / Counter / Histogram statistics with a
 * StatRegistry under dotted names ("engine.fpc0.eventsHandled"). The
 * registry can dump all statistics as text and supports reset, so
 * benchmarks can measure steady-state intervals.
 *
 * Histogram keeps every sample (with an optional reservoir cap) so that
 * exact medians and tail percentiles — needed for the Fig. 12 latency
 * experiment — are available.
 */

#ifndef F4T_SIM_STATS_HH
#define F4T_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace f4t::sim
{

class StatRegistry;

/** Common base: a named statistic registered with a registry. */
class StatBase
{
  public:
    StatBase(StatRegistry &registry, std::string name,
             std::string description);
    virtual ~StatBase();

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }

    virtual void reset() = 0;
    virtual void print(std::ostream &os) const = 0;

    /** Value as a JSON fragment (number or object), for dumpJson(). */
    virtual void printJson(std::ostream &os) const = 0;

    /**
     * Single-number snapshot for time-series sampling (trace.hh's
     * StatSampler): the value for scalars and counters, the running
     * mean for histograms.
     */
    virtual double sampleValue() const = 0;

  private:
    StatRegistry &registry_;
    std::string name_;
    std::string description_;
};

/** A double-valued scalar statistic (gauges and accumulators). */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator=(double v) { value_ = v; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    double value() const { return value_; }

    void reset() override { value_ = 0.0; }
    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    double sampleValue() const override { return value_; }

  private:
    double value_ = 0.0;
};

/** A monotonically increasing integer counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }
    std::uint64_t value() const { return value_; }

    void reset() override { value_ = 0; }
    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    double sampleValue() const override
    {
        return static_cast<double>(value_);
    }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Sample-keeping distribution. Exact percentiles while the sample count
 * stays below the cap; beyond the cap, uniform reservoir sampling keeps
 * the distribution representative.
 */
class Histogram : public StatBase
{
  public:
    Histogram(StatRegistry &registry, std::string name,
              std::string description, std::size_t reservoir_cap = 1 << 20);

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Exact (or reservoir-approximated) percentile, p in [0, 100]. */
    double percentile(double p) const;

    void reset() override;
    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    double sampleValue() const override { return mean(); }

  private:
    std::size_t cap_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<double> samples_;
    mutable bool sorted_ = true;
    std::uint64_t rngState_ = 0x9e3779b97f4a7c15ULL;
};

/**
 * Registry of all statistics belonging to one simulation. Like the
 * simulation, it is used from one thread at a time and takes no locks.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Look up a statistic by full dotted name; nullptr if missing. */
    StatBase *find(const std::string &name) const;

    /** Reset every registered statistic (start of measurement window). */
    void resetAll();

    /** Print all statistics, sorted by name. */
    void dump(std::ostream &os) const;

    /** Machine-readable dump: one JSON object keyed by stat name. */
    void dumpJson(std::ostream &os) const;

    /** Visit every statistic in name order; @p fn must not register
     *  or unregister statistics. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[name, stat] : stats_)
            fn(*stat);
    }

    std::size_t size() const { return stats_.size(); }

  private:
    friend class StatBase;

    void add(StatBase *stat);
    void remove(const StatBase *stat);

    std::map<std::string, StatBase *> stats_;
};

} // namespace f4t::sim

#endif // F4T_SIM_STATS_HH
