/**
 * @file
 * Statistical and determinism tests for the open-loop load
 * generators (src/load/generators.hh) and the flow-trace format
 * (src/load/trace.hh).
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
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "apps/testbed.hh"
#include "load/generators.hh"
#include "load/open_loop.hh"
#include "load/trace.hh"

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

TEST(LoadTrace, WriterReaderRoundTripPreservesRecords)
{
    std::vector<TraceRecord> records = {
        {1'000'000, 0, 2, apps::KvOp::get, 2048},
        {1'500'000, 1, 0, apps::KvOp::set, 512},
        {1'500'000, 1, 1, apps::KvOp::get, 64},
        {9'999'999'999ULL, 3, 7, apps::KvOp::set, 65536},
    };

    std::string path = ::testing::TempDir() + "/f4t_trace_roundtrip.flows";
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path, "roundtrip", 0xF47ULL));
    for (const auto &r : records)
        writer.append(r);
    ASSERT_TRUE(writer.close());
    EXPECT_EQ(writer.recordsWritten(), records.size());

    std::string error;
    auto parsed = readTrace(path, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->scenario, "roundtrip");
    EXPECT_EQ(parsed->seed, 0xF47ULL);
    ASSERT_EQ(parsed->records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(parsed->records[i], records[i]) << "record " << i;
    EXPECT_EQ(traceFingerprint(parsed->records), traceFingerprint(records));
    std::remove(path.c_str());
}

TEST(LoadTrace, FingerprintIsOrderSensitive)
{
    std::vector<TraceRecord> a = {
        {100, 0, 0, apps::KvOp::get, 64},
        {200, 0, 1, apps::KvOp::set, 128},
    };
    std::vector<TraceRecord> b = {a[1], a[0]};
    EXPECT_NE(traceFingerprint(a), traceFingerprint(b));
    EXPECT_NE(traceFingerprint(a), traceFingerprint({}));
}

TEST(LoadTrace, MalformedInputIsRejectedWithError)
{
    std::string path = ::testing::TempDir() + "/f4t_trace_malformed.flows";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# f4t-flows v1 scenario=bad seed=1\n", f);
    std::fputs("12345 0 0 FROB 2048\n", f); // unknown op
    std::fclose(f);

    std::string error;
    auto parsed = readTrace(path, &error);
    EXPECT_FALSE(parsed.has_value());
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());

    error.clear();
    auto missing = readTrace(path + ".does-not-exist", &error);
    EXPECT_FALSE(missing.has_value());
    EXPECT_FALSE(error.empty());
}

/** Write @p text to @p path verbatim. */
void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

TEST(LoadTrace, StrictReaderNamesTheLineOfEachBadRecord)
{
    std::string path = ::testing::TempDir() + "/f4t_trace_strict.flows";
    const std::string prefix = "# f4t-flows v1 scenario=strict seed=1\n"
                               "# time_ps client conn op value_bytes\n"
                               "1 0 0 GET 64\n";
    // Each bad record sits on line 4 and would parse as some other
    // record (or two) under a lax scanf reader.
    const std::vector<std::string> bad = {
        "-1 0 0 GET 100",
        "5 0 0 SET -100",
        "5 0 0 GET 99999999999",
        "5 0 0 GET 4294967296",
        "5 4294967296 0 GET 100",
        "18446744073709551616 0 0 GET 100",
        "5 0 0 GET 100 junk",
        "5 0 0 GET 100abc",
        "5 0 0 GET",
        "5 0 0 get 100",
        "5 0 0 GET 100" + std::string(250, ' ') + "6 0 0 GET 100",
        "0 0 0 GET 100", // time goes backwards after line 3
    };
    for (const std::string &record : bad) {
        writeFile(path, prefix + record + "\n7 0 0 GET 64\n");
        std::string error;
        auto parsed = readTrace(path, &error);
        EXPECT_FALSE(parsed.has_value()) << "accepted: " << record;
        EXPECT_NE(error.find(path + ":4: "), std::string::npos)
            << record << " -> " << error;
    }

    // The largest values that fit their columns are accepted.
    writeFile(path, prefix + "18446744073709551615 4294967295 4294967295 "
                             "SET 4294967295\n");
    std::string error;
    auto parsed = readTrace(path, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_EQ(parsed->records.size(), 2u);
    EXPECT_EQ(parsed->records[1],
              (TraceRecord{UINT64_MAX, UINT32_MAX, UINT32_MAX,
                           apps::KvOp::set, UINT32_MAX}));

    // The header must be line 1, with a decimal seed.
    for (const std::string &text : std::vector<std::string>{
             "", "1 0 0 GET 64\n", "# f4t-flows v1 scenario=x seed=-1\n",
             "# f4t-flows v1 scenario= seed=1\n",
             "# time_ps client conn op value_bytes\n" + prefix}) {
        writeFile(path, text);
        error.clear();
        EXPECT_FALSE(readTrace(path, &error).has_value()) << text;
        EXPECT_NE(error.find(path + ":1: "), std::string::npos) << error;
    }
    std::remove(path.c_str());
}

TEST(LoadTrace, MutatedTracesParseOrFailCleanly)
{
    // A trace as the writer emits it, then every truncation of it and
    // a few thousand seeded byte flips: each must parse into ordered
    // records or fail with an error naming a line — never crash.
    std::string path = ::testing::TempDir() + "/f4t_trace_mutated.flows";
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path, "mutated", 0xF10E5ULL));
    std::mt19937_64 rng(0xF10E5);
    std::uint64_t time = 0;
    for (std::uint32_t i = 0; i < 40; ++i) {
        time += rng() % 100'000;
        writer.append({time, i % 4, i % 3,
                       i % 5 == 0 ? apps::KvOp::set : apps::KvOp::get,
                       static_cast<std::uint32_t>(rng() % 70'000)});
    }
    ASSERT_TRUE(writer.close());
    std::string original;
    {
        std::ifstream in(path, std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_TRUE(readTrace(path).has_value());

    std::size_t accepted = 0, rejected = 0;
    auto check = [&](const std::string &text) {
        writeFile(path, text);
        std::string error;
        auto parsed = readTrace(path, &error);
        if (!parsed) {
            ++rejected;
            // "<path>:<line>: <problem>"
            EXPECT_EQ(error.rfind(path + ":", 0), 0u) << error;
            EXPECT_TRUE(error.size() > path.size() + 1 &&
                        std::isdigit(static_cast<unsigned char>(
                            error[path.size() + 1])))
                << error;
            return;
        }
        ++accepted;
        for (std::size_t i = 1; i < parsed->records.size(); ++i)
            ASSERT_GE(parsed->records[i].timePs,
                      parsed->records[i - 1].timePs);
    };
    for (std::size_t len = 0; len <= original.size(); ++len)
        check(original.substr(0, len));
    for (int flip = 0; flip < 3000; ++flip) {
        std::string text = original;
        text[rng() % text.size()] ^= static_cast<char>(1 + rng() % 255);
        check(text);
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    std::remove(path.c_str());
}

TEST(LoadTraceDeathTest, ReplayRejectsConnPastTheClientsSlots)
{
    // Record 1 of client 0 names conn 4 of a 4-connection client: the
    // client refuses the trace at start() instead of clamping it onto
    // the last slot.
    const std::vector<TraceRecord> records = {
        {1'000, 0, 3, apps::KvOp::get, 64},
        {2'000, 0, 4, apps::KvOp::get, 64},
    };
    auto start = [&records](std::size_t connections) {
        testbed::EnginePairWorld world;
        apps::F4tSocketApi api = world.apiA(0);
        OpenLoopConfig config;
        config.peer = testbed::ipB();
        config.connections = connections;
        config.replay = &records;
        OpenLoopClientApp client(api, config);
        client.start();
    };
    EXPECT_EXIT(start(4), ::testing::ExitedWithCode(1),
                "replay record 1 \\(time_ps 2000\\) uses conn 4");
    // With no connections at all, the first record of the client is
    // already out of range.
    EXPECT_EXIT(start(0), ::testing::ExitedWithCode(1), "replay record 0 ");
}

} // namespace
} // namespace f4t::load
