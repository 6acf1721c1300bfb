/**
 * @file
 * Unit tests for the wall-clock self-profiler (sim/profile_scope.hh,
 * obs/profiler.hh) and the ParallelExecutor runtime introspection it
 * feeds: scope self-time accounting, the categories events declare,
 * attribution-vs-wall coverage, thread-local merge across threads
 * that each run a simulation, the registerStats() scalars that are
 * available even without a profiling build, and the run-metadata
 * block that result files carry.
 *
 * ProfilerParallel matches the tsan preset's test filter: two of its
 * tests run simulations on two threads at once.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv.hh"
#include "apps/testbed.hh"
#include "apps/testbed_star.hh"
#include "apps/workloads.hh"
#include "baseline/stalling_engine.hh"
#include "load/open_loop.hh"
#include "load/syn_flood.hh"
#include "obs/profiler.hh"
#include "obs/run_meta.hh"
#include "sim/parallel.hh"
#include "sim/profile_scope.hh"
#include "sim/simulation.hh"
#include "tcp/congestion.hh"

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

/** Scopes closed per category while @p drive ran with profiling on. */
prof::Snapshot
profiledRun(const std::function<void()> &drive)
{
    ProfilingOn guard;
    prof::Snapshot before = prof::capture();
    drive();
    return prof::since(before);
}

std::uint64_t
scopes(const prof::Snapshot &snap, prof::Cat cat)
{
    return snap.count[static_cast<std::size_t>(cat)];
}

TEST(Profiler, EveryEventDeclaresItsCategory)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";

    // FtEngine echo: FPC, scheduler and link ticks, PCIe, runtime
    // polls and the host interface's completion flushes.
    prof::Snapshot pair = profiledRun([] {
        core::EngineConfig config;
        config.numFpcs = 2;
        config.flowsPerFpc = 32;
        config.maxFlows = 1024;
        testbed::EnginePairWorld world(1, config);
        apps::F4tSocketApi server_api = world.apiB(0);
        apps::EchoServerApp server(server_api, {});
        server.start();
        apps::F4tSocketApi client_api = world.apiA(0);
        apps::EchoClientConfig client_config;
        client_config.peer = testbed::ipB();
        client_config.flows = 4;
        apps::EchoClientApp client(client_api, nullptr, client_config);
        client.start();
        world.sim.runFor(sim::microsecondsToTicks(200));
        EXPECT_GT(client.roundTrips(), 0u);
    });

    // Open-loop arrivals, connection churn and a SYN flood through the
    // switch.
    prof::Snapshot star = profiledRun([] {
        testbed::StarConfig config;
        config.clients = 2;
        config.extraPorts = 1;
        testbed::StarWorld world(config);
        apps::F4tSocketApi server_api = world.serverApi();
        apps::KvServerApp server(server_api, {});
        server.start();

        auto open_api = world.makeClientApi(0);
        load::OpenLoopConfig open_config;
        open_config.peer = testbed::starServerIp();
        open_config.connections = 2;
        open_config.arrivals = load::ArrivalSpec::poisson(80'000.0);
        load::OpenLoopClientApp open(*open_api, open_config);
        open.start();

        auto churn_api = world.makeClientApi(1);
        load::ChurnConfig churn_config;
        churn_config.peer = testbed::starServerIp();
        churn_config.clientId = 1;
        churn_config.arrivals = load::ArrivalSpec::poisson(20'000.0);
        load::ChurnClientApp churn(*churn_api, churn_config);
        churn.start();

        load::SynFloodConfig flood_config;
        flood_config.target = testbed::starServerIp();
        flood_config.targetMac = testbed::starServerMac();
        flood_config.synsPerSec = 200'000.0;
        load::SynFloodApp flood(world.sim, "synflood",
                                world.fabric->port(config.clients + 1),
                                flood_config);
        flood.start();

        world.sim.runFor(sim::microsecondsToTicks(300));
        EXPECT_GT(open.completed(), 0u);
        EXPECT_GT(churn.opened(), 0u);
        EXPECT_GT(flood.sent(), 0u);
    });

    // Echo against the software stack, run past its 5 ms minimum RTO
    // so that armed soft-TCP retransmission timers fire.
    prof::Snapshot engine_linux = profiledRun([] {
        testbed::EngineLinuxWorld world;
        apps::LinuxSocketApi server_api = world.linuxApi(0);
        apps::EchoServerApp server(server_api, {});
        server.start();
        apps::F4tSocketApi client_api = world.engineApi(0);
        apps::EchoClientConfig client_config;
        client_config.peer = testbed::ipB();
        client_config.flows = 1;
        apps::EchoClientApp client(client_api, nullptr, client_config);
        client.start();
        world.sim.runFor(sim::microsecondsToTicks(12'000));
        EXPECT_GT(client.roundTrips(), 0u);
    });

    // The w-RMW baseline's ticks stand in for FPC work.
    prof::Snapshot stalling = profiledRun([] {
        sim::Simulation sim;
        tcp::NewRenoPolicy cc;
        tcp::FpuProgram program(cc);
        baseline::StallingEngine engine(sim, "wrmw", sim.netClock(), program,
                                        {});
        tcp::FlowId flow = engine.createSyntheticFlow();
        for (std::uint32_t i = 1; i <= 16; ++i) {
            tcp::TcpEvent event;
            event.flow = flow;
            event.type = tcp::TcpEventType::userSend;
            event.pointer = tcp::FpuProgram::initialSequence(flow) + 16 * i;
            engine.injectEvent(event);
        }
        sim.run();
        EXPECT_EQ(engine.eventsProcessed(), 16u);
    });

    struct World
    {
        const char *name;
        const prof::Snapshot &snap;
    };
    for (const World &world : {World{"engine pair", pair},
                               World{"star", star},
                               World{"engine-linux", engine_linux},
                               World{"stalling engine", stalling}}) {
        EXPECT_GT(world.snap.totalCount(), 0u) << world.name;
        EXPECT_EQ(scopes(world.snap, prof::Cat::otherEvent), 0u)
            << world.name;
    }
    EXPECT_GT(scopes(pair, prof::Cat::hostComplex), 0u);
    EXPECT_GT(scopes(star, prof::Cat::app), 0u);
    EXPECT_GT(scopes(engine_linux, prof::Cat::hostComplex), 0u);
    EXPECT_GT(scopes(stalling, prof::Cat::fpcExec), 0u);
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
            sim.queue().scheduleCallback(sim.now() + 100,
                                         prof::Cat::fpcExec, "fpc.tick",
                                         [&] { tick(); });
    };
    sim.queue().scheduleCallback(0, prof::Cat::fpcExec, "fpc.tick",
                                 [&] { tick(); });

    prof::Snapshot before = prof::capture();
    auto wall0 = std::chrono::steady_clock::now();
    sim.runFor(200 * 100 + 1);
    double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());

    prof::Snapshot delta = prof::since(before);
    EXPECT_EQ(fired, 200);
    // Every fired event declared fpc_exec.
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
    Tick la_;
};

/** Two partitions with self-rescheduling ticks charged to fpc_exec
 *  and app. */
struct TwoPartitionWorld
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex;
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
            pa.queue().scheduleCallback(pa.now() + 100, prof::Cat::fpcExec,
                                        "fpc.tick", [this] { tickA(); });
        };
        tickB = [this] {
            ++ticksB;
            pb.queue().scheduleCallback(pb.now() + 100, prof::Cat::app,
                                        "kv.tick", [this] { tickB(); });
        };
        pa.queue().scheduleCallback(0, prof::Cat::fpcExec, "fpc.tick",
                                    [this] { tickA(); });
        pb.queue().scheduleCallback(0, prof::Cat::app, "kv.tick",
                                    [this] { tickB(); });
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
    sim::StatBase *crossed =
        world.pa.stats().find("executor.crossDelivered");
    ASSERT_NE(windows, nullptr);
    ASSERT_NE(crossed, nullptr);
    EXPECT_EQ(windows->sampleValue(),
              static_cast<double>(world.ex.windowsRun()));
    EXPECT_GE(world.ex.windowsRun(), 5u);
    EXPECT_EQ(crossed->sampleValue(),
              static_cast<double>(world.ex.crossEventsDelivered()));

    // Unprofiled runs must not pay for executor timing: the one
    // profile row stays zero.
    std::vector<sim::WorkerProfile> profiles = world.ex.workerProfiles();
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_EQ(profiles[0].busyNs, 0u);
    EXPECT_EQ(profiles[0].idleNs, 0u);
    EXPECT_EQ(profiles[0].barrierNs, 0u);
}

/** One Simulation ticking every 100 ticks on @p cat, run to 10'000 on
 *  the calling thread: 101 categorized events. */
void
runTicker(prof::Cat cat)
{
    sim::Simulation sim;
    std::function<void()> tick = [&] {
        sim.queue().scheduleCallback(sim.now() + 100, cat, "tick",
                                     [&] { tick(); });
    };
    sim.queue().scheduleCallback(0, cat, "tick", [&] { tick(); });
    EXPECT_EQ(sim.run(10'000), 10'000u);
}

/** runTicker on two threads at once: fpc_exec on one, app on the
 *  other. */
void
runTickersOnTwoThreads()
{
    std::thread a([] { runTicker(prof::Cat::fpcExec); });
    std::thread b([] { runTicker(prof::Cat::app); });
    a.join();
    b.join();
}

TEST(ProfilerParallel, ThreadLocalMergeAcrossWorkers)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;
    prof::Snapshot before = prof::capture();
    runTickersOnTwoThreads();
    prof::Snapshot delta = prof::since(before);

    // Each thread's events landed in its own block, and capture()
    // must see both merged, each simulation's 101 events.
    EXPECT_GE(delta.count[static_cast<std::size_t>(prof::Cat::fpcExec)],
              101u);
    EXPECT_GE(delta.count[static_cast<std::size_t>(prof::Cat::app)],
              101u);
    EXPECT_EQ(delta.threads(), 2u);
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

    // The executor timed its partitions on the caller's thread.
    std::vector<sim::WorkerProfile> profiles = world.ex.workerProfiles();
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_GT(profiles[0].busyNs, 0u);
}

TEST(ProfilerParallel, ReportCountsThreadsThatRan)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    ProfilingOn guard;
    prof::Snapshot before = prof::capture();
    auto wall0 = std::chrono::steady_clock::now();
    runTickersOnTwoThreads();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();

    // Both threads closed scopes in the interval, so the budget is two
    // threads' wall time; each thread's self times are disjoint slices
    // of its own wall time and cannot overfill it.
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
                    "    \"timestamp\": \"2026-08-07T00:00:00Z\"\n"
                    "  }");
}

} // namespace
