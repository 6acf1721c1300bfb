/**
 * @file
 * Statistical and determinism tests for the open-loop load
 * generators (src/load/generators.hh).
 *
 * The statistical tests check sample moments against the analytic
 * values the specs advertise, with tolerance bands wide enough
 * (several standard errors) that a correct implementation passes for
 * every seed, while an off-by-a-constant bug (wrong rate unit, wrong
 * sigma convention, missing truncation) lands far outside the band.
 * The determinism tests pin the substream contract: a sequence is a
 * pure function of (seed, stream id, draw index).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "load/generators.hh"

namespace f4t::load
{
namespace
{

struct Moments
{
    double mean = 0.0;
    double variance = 0.0;
};

template <typename Draw>
Moments
sampleMoments(Draw &&draw, std::size_t n)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double x = static_cast<double>(draw());
        sum += x;
        sum_sq += x * x;
    }
    double mean = sum / static_cast<double>(n);
    double variance = sum_sq / static_cast<double>(n) - mean * mean;
    return {mean, variance};
}

TEST(LoadGenArrivals, FixedPeriodIsExact)
{
    auto spec = ArrivalSpec::fixedEvery(sim::microsecondsToTicks(7));
    ArrivalProcess process(spec, substreamSeed(42, 0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(process.nextGap(), sim::microsecondsToTicks(7));
    EXPECT_DOUBLE_EQ(spec.meanGapTicks(),
                     static_cast<double>(sim::microsecondsToTicks(7)));
}

TEST(LoadGenArrivals, PoissonMatchesAnalyticMeanAndVariance)
{
    constexpr double rate = 250'000.0; // per second
    auto spec = ArrivalSpec::poisson(rate);
    double mean_ticks = spec.meanGapTicks();
    EXPECT_NEAR(mean_ticks, sim::ticksPerSecond / rate, 1.0);

    ArrivalProcess process(spec, substreamSeed(7, 3));
    constexpr std::size_t n = 100'000;
    Moments m = sampleMoments([&] { return process.nextGap(); }, n);

    // Exponential: sd of the sample mean is mean/sqrt(n) ~ 0.32%;
    // the sample variance concentrates at mean^2 with ~0.9% rel sd.
    EXPECT_NEAR(m.mean, mean_ticks, 0.02 * mean_ticks);
    EXPECT_NEAR(m.variance, mean_ticks * mean_ticks,
                0.06 * mean_ticks * mean_ticks);
}

TEST(LoadGenArrivals, LogNormalGapMatchesAnalyticMean)
{
    constexpr double median_us = 12.0;
    constexpr double sigma = 0.6;
    auto spec = ArrivalSpec::logNormalGap(median_us, sigma);

    // Log-normal mean = median * exp(sigma^2 / 2).
    double expected =
        median_us * std::exp(sigma * sigma / 2.0) *
        static_cast<double>(sim::microsecondsToTicks(1));
    EXPECT_NEAR(spec.meanGapTicks(), expected, 1e-6 * expected);

    ArrivalProcess process(spec, substreamSeed(11, 5));
    constexpr std::size_t n = 200'000;
    Moments m = sampleMoments([&] { return process.nextGap(); }, n);
    EXPECT_NEAR(m.mean, expected, 0.03 * expected);
}

TEST(LoadGenArrivals, StochasticGapsAlwaysAdvanceTime)
{
    ArrivalProcess process(ArrivalSpec::poisson(1e9), substreamSeed(1, 1));
    for (int i = 0; i < 10'000; ++i)
        EXPECT_GE(process.nextGap(), 1u);
}

TEST(LoadGenSizes, FixedSizeIsExact)
{
    SizeSampler sampler(SizeSpec::fixedSize(4096), substreamSeed(2, 0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.next(), 4096u);
    EXPECT_DOUBLE_EQ(SizeSpec::fixedSize(4096).meanBytes(), 4096.0);
}

TEST(LoadGenSizes, BoundedParetoMatchesAnalyticMeanWithinBounds)
{
    auto spec = SizeSpec::boundedPareto(1.3, 256, 65536);
    SizeSampler sampler(spec, substreamSeed(3, 9));

    constexpr std::size_t n = 200'000;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = sampler.next();
        ASSERT_GE(v, 256u);
        ASSERT_LE(v, 65536u);
        sum += v;
    }
    double mean = sum / static_cast<double>(n);
    // alpha = 1.3 is heavy-tailed; truncation keeps the sample mean
    // concentrated, but leave a generous band.
    EXPECT_NEAR(mean, spec.meanBytes(), 0.05 * spec.meanBytes());
}

TEST(LoadGenSizes, LogNormalSizeMatchesAnalyticMeanWithinBounds)
{
    // Clamp bounds far in the tails so the unclamped analytic mean
    // applies (the header documents this convention).
    auto spec = SizeSpec::logNormalSize(1024.0, 0.5, 16, 1 << 20);
    SizeSampler sampler(spec, substreamSeed(4, 2));

    double expected = 1024.0 * std::exp(0.5 * 0.5 / 2.0);
    EXPECT_NEAR(spec.meanBytes(), expected, 1e-6 * expected);

    constexpr std::size_t n = 200'000;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = sampler.next();
        ASSERT_GE(v, 16u);
        ASSERT_LE(v, 1u << 20);
        sum += v;
    }
    EXPECT_NEAR(sum / static_cast<double>(n), expected, 0.03 * expected);
}

TEST(LoadGenDeterminism, SameSeedReproducesBitExactSequences)
{
    auto arrivals = ArrivalSpec::poisson(100'000.0);
    ArrivalProcess a(arrivals, substreamSeed(99, 4));
    ArrivalProcess b(arrivals, substreamSeed(99, 4));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextGap(), b.nextGap()) << "draw " << i;

    auto sizes = SizeSpec::boundedPareto(1.3, 64, 8192);
    SizeSampler sa(sizes, substreamSeed(99, 5));
    SizeSampler sb(sizes, substreamSeed(99, 5));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(sa.next(), sb.next()) << "draw " << i;
}

TEST(LoadGenDeterminism, InterleavingOtherStreamsDoesNotPerturbDraws)
{
    // The substream contract: stream 6's sequence is the same whether
    // or not draws from other streams happen in between.
    auto spec = ArrivalSpec::poisson(50'000.0);
    ArrivalProcess alone(spec, substreamSeed(123, 6));
    std::vector<sim::Tick> expected;
    for (int i = 0; i < 500; ++i)
        expected.push_back(alone.nextGap());

    ArrivalProcess six(spec, substreamSeed(123, 6));
    ArrivalProcess noise_a(spec, substreamSeed(123, 7));
    SizeSampler noise_b(SizeSpec::boundedPareto(1.3, 64, 8192),
                        substreamSeed(123, 8));
    for (int i = 0; i < 500; ++i) {
        noise_a.nextGap();
        noise_b.next();
        ASSERT_EQ(six.nextGap(), expected[static_cast<std::size_t>(i)])
            << "draw " << i;
        noise_a.nextGap();
    }
}

TEST(LoadGenDeterminism, SubstreamSeedsAreDistinctAcrossNearbyIds)
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t id = 0; id < 4096; ++id)
        seeds.push_back(substreamSeed(1, id));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
        << "substreamSeed collided on nearby stream ids";

    // Different scenario seeds must decorrelate the same stream id.
    EXPECT_NE(substreamSeed(1, 0), substreamSeed(2, 0));
}

} // namespace
} // namespace f4t::load
