#include "stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

namespace f4t::sim
{

namespace
{

/** JSON escaping for stat names (dotted names are already clean, but
 *  dumpJson() must stay valid for any registered name). */
std::string
jsonEscapeName(const std::string &s)
{
    std::string result;
    result.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            result += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            result += buf;
            continue;
        }
        result += c;
    }
    return result;
}

/** A double as a JSON number; non-finite values become null. */
void
printJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

} // namespace

StatBase::StatBase(StatRegistry &registry, std::string name,
                   std::string description)
    : registry_(registry), name_(std::move(name)),
      description_(std::move(description))
{
    registry_.add(this);
}

StatBase::~StatBase()
{
    registry_.remove(this);
}

void
Scalar::print(std::ostream &os) const
{
    os << name() << " " << value_ << " # " << description();
}

void
Scalar::printJson(std::ostream &os) const
{
    printJsonNumber(os, value_);
}

void
Counter::print(std::ostream &os) const
{
    os << name() << " " << value_ << " # " << description();
}

void
Counter::printJson(std::ostream &os) const
{
    os << value_;
}

Histogram::Histogram(StatRegistry &registry, std::string name,
                     std::string description, std::size_t reservoir_cap)
    : StatBase(registry, std::move(name), std::move(description)),
      cap_(reservoir_cap)
{
    f4t_assert(cap_ > 0, "histogram reservoir cap must be positive");
}

void
Histogram::sample(double v)
{
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    if (samples_.size() < cap_) {
        samples_.push_back(v);
        sorted_ = false;
        return;
    }

    // Vitter's algorithm R: replace a uniformly random slot with
    // probability cap / count.
    rngState_ ^= rngState_ << 13;
    rngState_ ^= rngState_ >> 7;
    rngState_ ^= rngState_ << 17;
    std::uint64_t slot = rngState_ % count_;
    if (slot < cap_) {
        samples_[slot] = v;
        sorted_ = false;
    }
}

double
Histogram::percentile(double p) const
{
    f4t_assert(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        auto &mutable_samples = const_cast<std::vector<double> &>(samples_);
        std::sort(mutable_samples.begin(), mutable_samples.end());
        sorted_ = true;
    }
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void
Histogram::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0.0;
    samples_.clear();
    sorted_ = true;
}

void
Histogram::print(std::ostream &os) const
{
    os << name() << " count=" << count_ << " mean=" << mean()
       << " min=" << min() << " p50=" << percentile(50)
       << " p99=" << percentile(99) << " max=" << max()
       << " # " << description();
}

void
Histogram::printJson(std::ostream &os) const
{
    os << "{\"count\":" << count_ << ",\"mean\":";
    printJsonNumber(os, mean());
    os << ",\"min\":";
    printJsonNumber(os, min());
    os << ",\"max\":";
    printJsonNumber(os, max());
    os << ",\"p50\":";
    printJsonNumber(os, percentile(50));
    os << ",\"p90\":";
    printJsonNumber(os, percentile(90));
    os << ",\"p99\":";
    printJsonNumber(os, percentile(99));
    os << "}";
}

StatBase *
StatRegistry::find(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second;
}

void
StatRegistry::resetAll()
{
    for (auto &[name, stat] : stats_)
        stat->reset();
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : stats_) {
        stat->print(os);
        os << "\n";
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{";
    const char *sep = "\n  ";
    for (const auto &[name, stat] : stats_) {
        os << sep << "\"" << jsonEscapeName(name) << "\": ";
        stat->printJson(os);
        sep = ",\n  ";
    }
    os << "\n}\n";
}

void
StatRegistry::add(StatBase *stat)
{
    auto [it, inserted] = stats_.emplace(stat->name(), stat);
    f4t_assert(inserted, "duplicate statistic name '%s'",
               stat->name().c_str());
}

void
StatRegistry::remove(const StatBase *stat)
{
    stats_.erase(stat->name());
}

} // namespace f4t::sim
