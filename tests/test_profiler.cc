/**
 * @file
 * Unit tests for the wall-clock self-profiler (sim/profile_scope.hh,
 * obs/profiler.hh) and the ParallelExecutor runtime introspection it
 * feeds: scope self-time accounting, event-tag categorization,
 * attribution-vs-wall coverage, thread-local merge across executor
 * workers, the registerStats() scalars that are available even
 * without a profiling build, and the run-metadata block that result
 * files carry.
 *
 * The parallel suites are named Profiler*Parallel* so the tsan preset
 * picks them up alongside the other barrier/mailbox tests.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "obs/profiler.hh"
#include "obs/run_meta.hh"
#include "sim/parallel.hh"
#include "sim/profile_scope.hh"
#include "sim/simulation.hh"

namespace
{

using namespace f4t;
using sim::Tick;
namespace prof = sim::prof;

/** Re-disable profiling even when an ASSERT bails out of a test. */
struct ProfilingOn
{
    ProfilingOn() { prof::setEnabled(true); }
    ~ProfilingOn() { prof::setEnabled(false); }
};

/** Burn wall time without sleeping (sleep would not count as work). */
void
spinFor(std::chrono::microseconds duration)
{
    auto until = std::chrono::steady_clock::now() + duration;
    volatile unsigned sink = 0;
    while (std::chrono::steady_clock::now() < until)
        sink = sink + 1;
}

// --- compile/runtime gates ----------------------------------------------

TEST(Profiler, DisabledScopesAccumulateNothing)
{
    prof::setEnabled(false);
    prof::Snapshot before = prof::capture();
    {
        prof::Scope scope(prof::Cat::harness);
        spinFor(std::chrono::microseconds(200));
    }
    prof::Snapshot delta = prof::since(before);
    EXPECT_EQ(delta.totalNs(), 0u);
    EXPECT_EQ(delta.totalCount(), 0u);
}

TEST(Profiler, CompiledOutBuildIsFullyInert)
{
    if (prof::compiledIn)
        GTEST_SKIP() << "this build has F4T_ENABLE_PROFILE=ON";
    // In an =OFF build the runtime switch must have no effect and
    // capture() must stay all-zero no matter what ran.
    prof::setEnabled(true);
    EXPECT_FALSE(prof::enabled());
    {
        prof::Scope scope(prof::Cat::harness);
        spinFor(std::chrono::microseconds(100));
    }
    EXPECT_EQ(prof::capture().totalCount(), 0u);
    prof::setEnabled(false);
}

// --- categorization ------------------------------------------------------

TEST(Profiler, CategoryTaggingStability)
{
    // Module-name substrings route to the matching subsystem; the
    // specific names win over the generic fallbacks.
    EXPECT_EQ(prof::categorizeTag("engineA.fpc0.tick"), prof::Cat::fpcExec);
    EXPECT_EQ(prof::categorizeTag("engineA.scheduler"),
              prof::Cat::scheduler);
    EXPECT_EQ(prof::categorizeTag("link.aToB"), prof::Cat::linkSwitch);
    EXPECT_EQ(prof::categorizeTag("switch.drain"), prof::Cat::linkSwitch);
    EXPECT_EQ(prof::categorizeTag("engineA.rxParser"), prof::Cat::rxParse);
    EXPECT_EQ(prof::categorizeTag("pcie.doorbell"), prof::Cat::hostComplex);
    EXPECT_EQ(prof::categorizeTag("host.cpu0"), prof::Cat::hostComplex);
    EXPECT_EQ(prof::categorizeTag("engineA.memoryManager"),
              prof::Cat::memory);
    EXPECT_EQ(prof::categorizeTag("engineA.timerWheel"),
              prof::Cat::timerWheel);
    EXPECT_EQ(prof::categorizeTag("stat.sample"), prof::Cat::obsSink);
    EXPECT_EQ(prof::categorizeTag("kv.server"), prof::Cat::app);
    EXPECT_EQ(prof::categorizeTag("no.known.needle"),
              prof::Cat::otherEvent);
    EXPECT_EQ(prof::categorizeTag(nullptr), prof::Cat::otherEvent);

    // The memoized hot-path variant agrees with the direct mapping,
    // including on repeated lookups of the same content.
    const char *tags[] = {"engineA.fpc0.tick", "link.aToB", "kv.server",
                          "no.known.needle"};
    for (int round = 0; round < 3; ++round)
        for (const char *tag : tags)
            EXPECT_EQ(prof::categorizeTagCached(tag),
                      prof::categorizeTag(tag))
                << tag;
}

TEST(Profiler, CategoryNamesAreStableIdentifiers)
{
    // JSON keys and baseline metrics hang off these names: renaming
    // one silently orphans committed baselines, so pin them.
    EXPECT_STREQ(prof::toString(prof::Cat::eventQueue), "event_queue");
    EXPECT_STREQ(prof::toString(prof::Cat::fpcExec), "fpc_exec");
    EXPECT_STREQ(prof::toString(prof::Cat::linkSwitch), "link_switch");
    EXPECT_STREQ(prof::toString(prof::Cat::hostComplex), "host_complex");
    EXPECT_STREQ(prof::toString(prof::Cat::otherEvent), "other_event");
}

// --- self-time accounting ------------------------------------------------

TEST(Profiler, NestedScopeSelfTime)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;
    prof::Snapshot before = prof::capture();

    auto wall0 = std::chrono::steady_clock::now();
    {
        prof::Scope outer(prof::Cat::harness);
        spinFor(std::chrono::microseconds(400));
        {
            prof::Scope inner(prof::Cat::app);
            spinFor(std::chrono::microseconds(400));
        }
        spinFor(std::chrono::microseconds(400));
    }
    auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());

    prof::Snapshot delta = prof::since(before);
    std::size_t harness = static_cast<std::size_t>(prof::Cat::harness);
    std::size_t app = static_cast<std::size_t>(prof::Cat::app);
    EXPECT_EQ(delta.count[harness], 1u);
    EXPECT_EQ(delta.count[app], 1u);
    // The child's time is charged to the child only: the outer scope's
    // self time excludes it, and both spins are visible.
    EXPECT_GT(delta.ns[app], 200'000u);
    EXPECT_GT(delta.ns[harness], 400'000u);
    // Self times are disjoint slices of the same wall interval: their
    // sum can never exceed it, and here it should cover most of it.
    EXPECT_LE(delta.totalNs(), wall_ns);
    EXPECT_GT(delta.totalNs(), wall_ns * 8 / 10);
}

TEST(Profiler, AttributionSumsToWallTime)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;

    // A real event loop: the queue's run() opens the root scope, so
    // everything inside — event dispatch and queue bookkeeping alike —
    // lands in some category.
    sim::Simulation sim;
    int fired = 0;
    std::function<void()> tick = [&] {
        ++fired;
        spinFor(std::chrono::microseconds(20));
        if (fired < 200)
            sim.queue().scheduleCallback(sim.now() + 100, "fpc.tick",
                                         [&] { tick(); });
    };
    sim.queue().scheduleCallback(0, "fpc.tick", [&] { tick(); });

    prof::Snapshot before = prof::capture();
    auto wall0 = std::chrono::steady_clock::now();
    sim.runFor(200 * 100 + 1);
    double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());

    prof::Snapshot delta = prof::since(before);
    EXPECT_EQ(fired, 200);
    // Every fired event was tagged "fpc.tick".
    EXPECT_GE(delta.count[static_cast<std::size_t>(prof::Cat::fpcExec)],
              200u);
    // The ISSUE's bar: attributed self time covers >= 90% of the
    // measured wall interval (scope overhead is inside some scope too,
    // so the only loss is the capture calls themselves).
    EXPECT_GT(delta.totalNs(), wall_ns * 0.9);
    EXPECT_LE(delta.totalNs(), wall_ns * 1.05);
}

TEST(Profiler, ReportSharesAndCoverage)
{
    prof::Snapshot delta;
    delta.ns[static_cast<std::size_t>(prof::Cat::fpcExec)] = 3'000'000;
    delta.count[static_cast<std::size_t>(prof::Cat::fpcExec)] = 30;
    delta.ns[static_cast<std::size_t>(prof::Cat::linkSwitch)] = 1'000'000;
    delta.count[static_cast<std::size_t>(prof::Cat::linkSwitch)] = 10;
    delta.threadScopes = {40};

    obs::ProfileReport report = obs::makeProfileReport(delta, 0.005);
    EXPECT_EQ(report.threads, 1u);
    ASSERT_EQ(report.rows.size(), 2u);
    // Sorted by self time, shares out of attributed total, coverage
    // out of the wall budget: 4 ms attributed / 5 ms wall = 80%.
    EXPECT_EQ(report.rows[0].name, "fpc_exec");
    EXPECT_NEAR(report.rows[0].sharePct, 75.0, 0.1);
    EXPECT_NEAR(report.rows[1].sharePct, 25.0, 0.1);
    EXPECT_NEAR(report.coveragePct, 80.0, 0.1);
    EXPECT_EQ(report.events, 40u);

    // Two threads that closed scopes double the budget: same
    // attribution, half coverage. A thread that closed none does not.
    delta.threadScopes = {30, 0, 10};
    obs::ProfileReport wide = obs::makeProfileReport(delta, 0.005);
    EXPECT_EQ(wide.threads, 2u);
    EXPECT_NEAR(wide.coveragePct, 40.0, 0.1);
}

// --- parallel executor introspection ------------------------------------

/** Channel stub: fixed lookahead, never pending (no cross traffic). */
struct IdleChannel : sim::CrossChannel
{
    explicit IdleChannel(Tick la) : la_(la) {}
    Tick lookahead() const override { return la_; }
    std::size_t drainInto() override { return 0; }
    bool idle() const override { return true; }
    Tick la_;
};

/** Two partitions with self-rescheduling tagged ticks, two workers. */
struct TwoPartitionWorld
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex{2};
    IdleChannel channel{2'000};
    int ticksA = 0, ticksB = 0;
    std::function<void()> tickA, tickB;

    TwoPartitionWorld()
    {
        ex.addPartition(pa, "a");
        ex.addPartition(pb, "b");
        ex.addChannel(channel);
        tickA = [this] {
            ++ticksA;
            pa.queue().scheduleCallback(pa.now() + 100, "fpc.tick",
                                        [this] { tickA(); });
        };
        tickB = [this] {
            ++ticksB;
            pb.queue().scheduleCallback(pb.now() + 100, "kv.tick",
                                        [this] { tickB(); });
        };
        pa.queue().scheduleCallback(0, "fpc.tick", [this] { tickA(); });
        pb.queue().scheduleCallback(0, "kv.tick", [this] { tickB(); });
    }
};

TEST(ProfilerParallel, StatsPublishedWithoutProfiling)
{
    // Satellite contract: executor counters surface through the
    // StatRegistry with profiling disabled (and in =OFF builds).
    prof::setEnabled(false);
    TwoPartitionWorld world;
    world.ex.registerStats(world.pa.stats());
    EXPECT_EQ(world.ex.run(10'000), 10'000u);
    EXPECT_EQ(world.ticksA, 101);
    EXPECT_EQ(world.ticksB, 101);

    sim::StatBase *windows = world.pa.stats().find("executor.windows");
    sim::StatBase *spills =
        world.pa.stats().find("executor.mailboxSpills");
    sim::StatBase *crossed =
        world.pa.stats().find("executor.crossDelivered");
    ASSERT_NE(windows, nullptr);
    ASSERT_NE(spills, nullptr);
    ASSERT_NE(crossed, nullptr);
    EXPECT_EQ(windows->sampleValue(),
              static_cast<double>(world.ex.windowsRun()));
    EXPECT_GE(world.ex.windowsRun(), 5u);
    EXPECT_EQ(spills->sampleValue(),
              static_cast<double>(world.ex.mailboxSpills()));
    EXPECT_EQ(crossed->sampleValue(),
              static_cast<double>(world.ex.crossEventsDelivered()));

    // Unprofiled runs must not pay for worker timing: the profile
    // rows exist (sized at startWorkers) but stay zero.
    for (const sim::WorkerProfile &w : world.ex.workerProfiles()) {
        EXPECT_EQ(w.busyNs, 0u);
        EXPECT_EQ(w.idleNs, 0u);
        EXPECT_EQ(w.barrierNs, 0u);
    }
}

TEST(ProfilerParallel, ThreadLocalMergeAcrossWorkers)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;
    TwoPartitionWorld world;
    prof::Snapshot before = prof::capture();
    EXPECT_EQ(world.ex.run(10'000), 10'000u);
    prof::Snapshot delta = prof::since(before);

    // Partition B ran on the worker thread; its events landed in that
    // thread's block and capture() must see them merged with the
    // coordinator's. Both partitions fired 101 tagged events.
    EXPECT_GE(delta.count[static_cast<std::size_t>(prof::Cat::fpcExec)],
              101u);
    EXPECT_GE(delta.count[static_cast<std::size_t>(prof::Cat::app)],
              101u);

    // Worker timing was live: every effective thread reports busy
    // time, and only the coordinator reports barrier waits.
    std::vector<sim::WorkerProfile> workers = world.ex.workerProfiles();
    ASSERT_EQ(workers.size(), world.ex.effectiveThreads());
    ASSERT_EQ(workers.size(), 2u);
    EXPECT_GT(workers[0].busyNs, 0u);
    EXPECT_GT(workers[1].busyNs, 0u);
    EXPECT_EQ(workers[0].idleNs, 0u);
    EXPECT_EQ(workers[1].barrierNs, 0u);

    obs::ProfileReport report = obs::makeProfileReport(delta, 0.001);
    obs::attachWorkerProfiles(report, {}, workers);
    EXPECT_EQ(report.workers.size(), 2u);
    EXPECT_GT(report.occupancyPct, 0.0);
}

TEST(ProfilerParallel, SnapshotDeltaIsolatesConsecutiveRuns)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;
    TwoPartitionWorld world;
    world.ex.run(10'000);
    prof::Snapshot mid = prof::capture();
    world.ex.run(20'000);
    prof::Snapshot delta = prof::since(mid);
    // Only the second run's events (101 more per partition, the tick
    // at 10'000 having fired in run one's closing window edge or this
    // one — allow the off-by-one) are in the delta.
    std::size_t fpc = static_cast<std::size_t>(prof::Cat::fpcExec);
    EXPECT_GE(delta.count[fpc], 99u);
    EXPECT_LE(delta.count[fpc], 110u);
}

TEST(ProfilerParallel, ReportCountsThreadsThatRan)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;
    TwoPartitionWorld world;
    prof::Snapshot before = prof::capture();
    auto wall0 = std::chrono::steady_clock::now();
    EXPECT_EQ(world.ex.run(10'000), 10'000u);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();

    // Both executor threads closed scopes in the interval, so the
    // budget is two threads' wall time; each thread's self times are
    // disjoint slices of its own wall time and cannot overfill it.
    obs::ProfileReport report =
        obs::makeProfileReport(prof::since(before), wall);
    EXPECT_EQ(report.threads, 2u);
    EXPECT_GT(report.coveragePct, 0.0);
    EXPECT_LE(report.coveragePct, 100.0);
}

// --- run metadata --------------------------------------------------------

TEST(RunMeta, WriteMetaJsonEmitsEveryField)
{
    obs::RunMeta meta;
    meta.gitSha = "abc123def456";
    meta.preset = "release";
    meta.checksEnabled = true;
    meta.profiled = true;
    meta.timestamp = "2026-08-07T00:00:00Z";
    meta.threads = 2;

    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    obs::writeMetaJson(out, meta, 2);
    std::rewind(out);
    std::string text;
    for (int c = std::fgetc(out); c != EOF; c = std::fgetc(out))
        text.push_back(static_cast<char>(c));
    std::fclose(out);

    EXPECT_EQ(text, "  \"meta\": {\n"
                    "    \"git_sha\": \"abc123def456\",\n"
                    "    \"preset\": \"release\",\n"
                    "    \"checks_enabled\": true,\n"
                    "    \"profile_enabled\": false,\n"
                    "    \"profiled\": true,\n"
                    "    \"timestamp\": \"2026-08-07T00:00:00Z\",\n"
                    "    \"threads\": 2\n"
                    "  }");
}

} // namespace
