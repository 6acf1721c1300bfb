/**
 * @file
 * Fixed-seed fuzz smoke corpus.
 *
 * Each seed is a full differential run: the same generated scenario —
 * nonzero drop/duplicate/reorder rates included — executes on the
 * FtEngine pair (in one Simulation and partitioned at 2 executor
 * workers), the FtEngine-vs-Linux pair, and the Linux pair, and the
 * four ledgers must agree byte-for-byte. The corpus seeds are fixed
 * so CI is deterministic; `fuzz_sweep` explores fresh seeds.
 *
 * Also here: the oracle's teeth are proven by corrupting one payload
 * byte in flight and requiring a violation that names the reproducing
 * seed, and the invariant-audit layer is required to have actually run
 * during engine-world simulations.
 */

#include <gtest/gtest.h>

#include "fuzz_runner.hh"
#include "sim/check.hh"

namespace
{

using namespace f4t;
using namespace f4t::fuzz;

void
runCorpus(std::uint64_t first_seed, std::uint64_t count)
{
    for (std::uint64_t seed = first_seed; seed < first_seed + count;
         ++seed) {
        std::string report = runDifferential(seed);
        EXPECT_TRUE(report.empty())
            << "reproduce with: fuzz_sweep " << seed << " 1\n" << report;
    }
}

// 24 seeds x 4 worlds, split so ctest can run the slices in parallel.
TEST(FuzzSmoke, CorpusSlice0) { runCorpus(1, 6); }
TEST(FuzzSmoke, CorpusSlice1) { runCorpus(7, 6); }
TEST(FuzzSmoke, CorpusSlice2) { runCorpus(13, 6); }
TEST(FuzzSmoke, CorpusSlice3) { runCorpus(19, 6); }

TEST(FuzzSmoke, ScenarioGenerationIsDeterministic)
{
    Scenario a = Scenario::fromSeed(0xf4f4f4f4ULL);
    Scenario b = Scenario::fromSeed(0xf4f4f4f4ULL);
    ASSERT_EQ(a.conns.size(), b.conns.size());
    for (std::size_t i = 0; i < a.conns.size(); ++i) {
        EXPECT_EQ(a.conns[i].requestBytes, b.conns[i].requestBytes);
        EXPECT_EQ(a.conns[i].responseBytes, b.conns[i].responseBytes);
        EXPECT_EQ(a.conns[i].chunkBytes, b.conns[i].chunkBytes);
        EXPECT_EQ(a.conns[i].connectDelay, b.conns[i].connectDelay);
    }
    EXPECT_EQ(a.faultsAtoB.dropProbability, b.faultsAtoB.dropProbability);
    EXPECT_EQ(a.bandwidthBps, b.bandwidthBps);

    // Neighboring seeds must diverge (the seed is splashed).
    Scenario c = Scenario::fromSeed(0xf4f4f4f5ULL);
    EXPECT_TRUE(a.conns.size() != c.conns.size() ||
                a.conns[0].requestBytes != c.conns[0].requestBytes ||
                a.faultsAtoB.dropProbability !=
                    c.faultsAtoB.dropProbability);
}

TEST(FuzzSmoke, CorpusAlwaysInjectsFaults)
{
    // Every corpus scenario carries nonzero fault rates on at least
    // one direction; the generator forces this.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Scenario sc = Scenario::fromSeed(seed);
        EXPECT_TRUE(hasFaults(sc.faultsAtoB) || hasFaults(sc.faultsBtoA))
            << "seed " << seed;
    }
}

TEST(FuzzSmoke, SingleCorruptByteIsCaughtAndNamesSeed)
{
    // Faultless link so the corrupted packet is guaranteed delivered;
    // the stack carries packets as structs (no checksum re-validation
    // on the simulated path), so only the oracle can catch this.
    Scenario sc = Scenario::fromSeed(42);
    std::uint64_t keep_a = sc.faultsAtoB.seed;
    std::uint64_t keep_b = sc.faultsBtoA.seed;
    sc.faultsAtoB = {};
    sc.faultsBtoA = {};
    sc.faultsAtoB.seed = keep_a;
    sc.faultsBtoA.seed = keep_b;

    bool corrupted = false;
    auto mutate = [&corrupted](net::Packet &pkt) {
        if (corrupted || !pkt.isTcp() || pkt.payload.size() <= 20)
            return;
        // Offset 20 lands beyond the 12-byte fuzz protocol header, so
        // the run still completes and the report shows the mismatch.
        pkt.payload[20] ^= 0x20;
        corrupted = true;
    };

    RunResult result = runScenario(WorldKind::enginePair, sc, mutate);
    ASSERT_TRUE(corrupted);
    EXPECT_FALSE(result.oraclePassed);
    EXPECT_NE(result.failureReport.find("seed=0x2a"), std::string::npos)
        << result.failureReport;
    EXPECT_NE(result.failureReport.find("corrupt byte"), std::string::npos)
        << result.failureReport;
}

TEST(FuzzSmoke, InvariantAuditsEngageOnEngineWorlds)
{
    Scenario sc = Scenario::fromSeed(7);
    RunResult engine = runScenario(WorldKind::enginePair, sc);
    ASSERT_TRUE(engine.ok()) << engine.failureReport;
    RunResult linux_pair = runScenario(WorldKind::linuxPair, sc);
    ASSERT_TRUE(linux_pair.ok()) << linux_pair.failureReport;

    if constexpr (sim::checksEnabled) {
        // The scheduler drives sim.maybeAudit() from its tick, so any
        // engine-world run must have swept the invariants.
        EXPECT_GT(engine.auditRuns, 0u);
    } else {
        EXPECT_EQ(engine.auditRuns, 0u);
    }
    // No engine, no audit driver: the Linux baseline never sweeps.
    EXPECT_EQ(linux_pair.auditRuns, 0u);
}

} // namespace
