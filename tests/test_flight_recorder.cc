/**
 * @file
 * Flight recorder: ring semantics, per-thread merge, failure-triggered
 * dumps, and the wall-clock watchdog.
 *
 * Suite naming is deliberate: FlightRecorderDeathTest runs first
 * (gtest orders *DeathTest suites ahead of the rest), so the forked
 * children see a process where defaultWatchdogSeconds() has not been
 * memoized yet and the watchdog thread has never been started — a
 * fork would not carry a live thread across. FlightRecorderParallel
 * matches the tsan preset's test filter, putting the lock-free ring's
 * cross-thread paths under the race detector; the timing-sensitive
 * watchdog suites deliberately do not match it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>

#include "apps/testbed.hh"
#include "sim/flight_recorder.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"

using namespace f4t;
using sim::Tick;
namespace fr = sim::fr;

namespace
{

/** Set the watchdog default before anything can memoize it: the
 *  barrier-stall death test relies on a sub-second timeout. */
struct WatchdogEnv
{
    WatchdogEnv() { ::setenv("F4T_WATCHDOG_SECS", "0.25", 1); }
};
WatchdogEnv watchdogEnv;

/** This thread's ring in @p snap, identified by write count. */
const fr::Snapshot::RingCopy *
ringWithTotal(const fr::Snapshot &snap, std::uint64_t total)
{
    for (const auto &ring : snap.rings) {
        if (ring.totalWritten == total)
            return &ring;
    }
    return nullptr;
}

std::string
onlyDumpIn(const std::string &dir)
{
    std::string found;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".f4tfr") {
            EXPECT_TRUE(found.empty())
                << "more than one dump in " << dir;
            found = entry.path().string();
        }
    }
    EXPECT_FALSE(found.empty()) << "no .f4tfr dump in " << dir;
    return found;
}

void
expectTickSorted(const std::vector<fr::TimelineEntry> &timeline)
{
    for (std::size_t i = 1; i < timeline.size(); ++i)
        ASSERT_GE(timeline[i].rec.tick, timeline[i - 1].rec.tick);
}

/** Channel stub: fixed lookahead, no cross traffic. */
struct IdleChannel : sim::CrossChannel
{
    explicit IdleChannel(Tick la) : la_(la) {}
    Tick lookahead() const override { return la_; }
    std::size_t drainInto() override { return 0; }
    bool idle() const override { return true; }
    Tick la_;
};

// --- failure-triggered dumps (must run before watchdog use) -------------

TEST(FlightRecorderDeathTest, CheckFailureDumpRoundTripsThroughDecoder)
{
    char dir[] = "/tmp/f4tfr-crash-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    ::setenv("F4T_DUMP_DIR", dir, 1);

    // Records made here are inherited by the forked child, so the
    // crash dump must carry them back out through the file.
    fr::setEnabled(true);
    fr::clear();
    std::uint16_t module = fr::internModule("test.fpc0");
    for (std::uint64_t i = 0; i < 32; ++i)
        fr::record(fr::Kind::fpcRxSegment, 1000 + i, module, 0xabcd1234u,
                   i);

    EXPECT_DEATH(f4t_assert(false, "injected forensics failure"),
                 "flight recorder: dumped");

    fr::Snapshot snap;
    std::string reason, error;
    ASSERT_TRUE(fr::readDump(onlyDumpIn(dir), snap, reason, error))
        << error;
    EXPECT_NE(reason.find("injected forensics failure"),
              std::string::npos)
        << reason;

    auto timeline = fr::mergeTimeline(snap);
    ASSERT_GE(timeline.size(), 32u);
    expectTickSorted(timeline);

    // The timeline names the module and the flow.
    bool named = false;
    for (const auto &entry : timeline) {
        std::string line = fr::formatEntry(snap, entry);
        if (line.find("test.fpc0") != std::string::npos &&
            line.find("flow=abcd1234") != std::string::npos) {
            named = true;
            break;
        }
    }
    EXPECT_TRUE(named);

    ::unsetenv("F4T_DUMP_DIR");
    std::filesystem::remove_all(dir);
}

TEST(FlightRecorderDeathTest, ParallelBarrierStallTriggersWatchdogDump)
{
    char dir[] = "/tmp/f4tfr-stall-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    ::setenv("F4T_DUMP_DIR", dir, 1);
    fr::setEnabled(true);
    fr::clear();

    // The wedge event sleeps far past the 0.25 s watchdog default set
    // at static init: the window barrier never completes, no beat
    // arrives, and the executor's armed watchdog dumps and aborts.
    auto stall = [] {
        sim::Simulation pa, pb;
        sim::ParallelExecutor ex(1);
        ex.addPartition(pa, "a");
        ex.addPartition(pb, "b");
        IdleChannel ch(1'000);
        ex.addChannel(ch);
        for (Tick t = 100; t <= 400; t += 100)
            pa.queue().scheduleCallback(t, "tick", [] {});
        pa.queue().scheduleCallback(500, "wedge", [] {
            std::this_thread::sleep_for(std::chrono::seconds(5));
        });
        ex.run(10'000);
    };
    EXPECT_DEATH(stall(), "flight recorder: dumped");

    fr::Snapshot snap;
    std::string reason, error;
    ASSERT_TRUE(fr::readDump(onlyDumpIn(dir), snap, reason, error))
        << error;
    EXPECT_NE(reason.find("watchdog"), std::string::npos) << reason;

    // The dispatch record lands before the event body runs, so the
    // last kernel record in the timeline is the wedged dispatch.
    auto timeline = fr::mergeTimeline(snap);
    ASSERT_FALSE(timeline.empty());
    expectTickSorted(timeline);
    bool saw_wedge_dispatch = false;
    for (const auto &entry : timeline) {
        if (entry.rec.kind ==
                static_cast<std::uint8_t>(fr::Kind::evDispatch) &&
            entry.rec.tick == 500) {
            saw_wedge_dispatch = true;
        }
    }
    EXPECT_TRUE(saw_wedge_dispatch);

    ::unsetenv("F4T_DUMP_DIR");
    std::filesystem::remove_all(dir);
}

// --- ring semantics -----------------------------------------------------

TEST(FlightRecorder, RecordsAppearInSnapshotInOrder)
{
    fr::setEnabled(true);
    fr::clear();
    std::uint16_t module = fr::internModule("test.ring");
    fr::record(fr::Kind::mark, 10, module, 1, 100, 200);
    fr::record(fr::Kind::linkTx, 20, module, 2, 300);
    fr::record(fr::Kind::switchDrop, 30, module, 3);

    fr::Snapshot snap = fr::snapshot();
    const auto *ring = ringWithTotal(snap, 3);
    ASSERT_NE(ring, nullptr);
    ASSERT_EQ(ring->records.size(), 3u);
    EXPECT_EQ(ring->records[0].tick, 10u);
    EXPECT_EQ(ring->records[0].a, 100u);
    EXPECT_EQ(ring->records[0].b, 200u);
    EXPECT_EQ(ring->records[1].kind,
              static_cast<std::uint8_t>(fr::Kind::linkTx));
    EXPECT_EQ(ring->records[2].flow, 3u);
    ASSERT_LT(module, snap.modules.size());
    EXPECT_EQ(snap.modules[module], "test.ring");
}

TEST(FlightRecorder, WrapKeepsLastCapacityRecordsOldestFirst)
{
    fr::setEnabled(true);
    fr::clear();
    const std::uint64_t total = fr::ringCapacity + 123;
    for (std::uint64_t i = 0; i < total; ++i)
        fr::record(fr::Kind::mark, i, 0, 0, i);

    fr::Snapshot snap = fr::snapshot();
    const auto *ring = ringWithTotal(snap, total);
    ASSERT_NE(ring, nullptr);
    ASSERT_EQ(ring->records.size(), fr::ringCapacity);
    EXPECT_EQ(ring->records.front().tick, 123u); // oldest survivor
    for (std::size_t i = 0; i < ring->records.size(); ++i)
        ASSERT_EQ(ring->records[i].tick, 123 + i);
}

TEST(FlightRecorder, SnapshotRoundTripsThroughDumpFile)
{
    fr::setEnabled(true);
    fr::clear();
    std::uint16_t module = fr::internModule("test.roundtrip");
    for (std::uint64_t i = 0; i < 100; ++i)
        fr::record(fr::Kind::pcieDma, 7 * i, module, 0x42, i, 2 * i);

    char dir[] = "/tmp/f4tfr-rt-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    std::string path = std::string(dir) + "/rt.f4tfr";
    ASSERT_TRUE(fr::dumpToFile(path, "round trip"));

    fr::Snapshot snap;
    std::string reason, error;
    ASSERT_TRUE(fr::readDump(path, snap, reason, error)) << error;
    EXPECT_EQ(reason, "round trip");
    const auto *ring = ringWithTotal(snap, 100);
    ASSERT_NE(ring, nullptr);
    ASSERT_EQ(ring->records.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i) {
        ASSERT_EQ(ring->records[i].tick, 7 * i);
        ASSERT_EQ(ring->records[i].a, i);
        ASSERT_EQ(ring->records[i].b, 2 * i);
    }
    ASSERT_LT(module, snap.modules.size());
    EXPECT_EQ(snap.modules[module], "test.roundtrip");
    std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, DisabledRunRecordsNothingAndBehaviorIsIdentical)
{
    // Identical event patterns with the recorder on and off must land
    // on identical simulated end states (the recorder never feeds back
    // into the model), and the disabled run must leave zero records.
    auto drive = [](sim::Simulation &sim) {
        for (Tick t = 100; t <= 1000; t += 100)
            sim.queue().scheduleCallback(t, "tick", [] {});
        sim.run(2'000);
    };

    fr::setEnabled(true);
    fr::clear();
    sim::Simulation enabled_sim;
    drive(enabled_sim);
    fr::Snapshot with = fr::snapshot();
    ASSERT_NE(ringWithTotal(with, 10), nullptr); // 10 dispatches

    fr::setEnabled(false);
    fr::clear();
    sim::Simulation disabled_sim;
    drive(disabled_sim);
    fr::Snapshot without = fr::snapshot();
    fr::setEnabled(true);

    for (const auto &ring : without.rings)
        EXPECT_EQ(ring.totalWritten, 0u);
    EXPECT_EQ(enabled_sim.now(), disabled_sim.now());
    EXPECT_EQ(enabled_sim.queue().eventsProcessed(),
              disabled_sim.queue().eventsProcessed());
}

// --- cross-thread merge (named to run under the tsan preset) ------------

TEST(FlightRecorder, FpcRecordsEachAbsorbedEventKind)
{
    // One connection through an FtEngine pair: connect, a 64 B echo,
    // close. The FPCs absorbing those events must record each kind
    // under their own module.
    fr::setEnabled(true);
    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 16;
    config.maxFlows = 64;
    testbed::EnginePairWorld world(1, config);
    auto client = world.apiA(0);
    auto server = world.apiB(0);

    std::vector<std::uint8_t> buf(256, 0x5a);
    apps::SocketApi::Handlers server_handlers;
    server_handlers.onReadable = [&](int conn, std::size_t) {
        std::size_t n = server.recv(conn, buf);
        server.send(conn, std::span<const std::uint8_t>(buf.data(), n));
    };
    server_handlers.onPeerClosed = [&](int conn) { server.close(conn); };
    // The passive closer finishes without TIME_WAIT.
    bool closed = false;
    server_handlers.onClosed = [&](int) { closed = true; };
    server.setHandlers(server_handlers);
    server.listen(7);

    apps::SocketApi::Handlers client_handlers;
    client_handlers.onConnected = [&](int conn) {
        client.send(conn, std::span<const std::uint8_t>(buf.data(), 64));
    };
    client_handlers.onReadable = [&](int conn, std::size_t) {
        client.recv(conn, buf);
        client.close(conn);
    };
    client.setHandlers(client_handlers);
    client.connect(testbed::ipB(), 7);

    // Collect in short slices, clearing between them, so the ring
    // never wraps over an early record.
    std::set<fr::Kind> fpc_kinds;
    fr::clear();
    for (int slice = 0; slice < 400 && !closed; ++slice) {
        world.runFor(sim::microsecondsToTicks(5));
        fr::Snapshot snap = fr::snapshot();
        for (const auto &ring : snap.rings) {
            ASSERT_LE(ring.totalWritten, fr::ringCapacity);
            for (const fr::Record &rec : ring.records) {
                ASSERT_LT(rec.module, snap.modules.size());
                if (snap.modules[rec.module].find(".fpc") !=
                    std::string::npos)
                    fpc_kinds.insert(static_cast<fr::Kind>(rec.kind));
            }
        }
        fr::clear();
    }
    ASSERT_TRUE(closed) << "echo connection never closed";
    for (fr::Kind kind : {fr::Kind::fpcUserConnect, fr::Kind::fpcUserSend,
                          fr::Kind::fpcRxSegment, fr::Kind::fpcUserClose})
        EXPECT_TRUE(fpc_kinds.count(kind)) << fr::toString(kind);
}

TEST(FlightRecorderParallel, TwoThreadMergeIsTickSorted)
{
    fr::setEnabled(true);
    fr::clear();
    std::uint16_t even = fr::internModule("test.even");
    std::uint16_t odd = fr::internModule("test.odd");

    std::thread a([&] {
        for (std::uint64_t i = 0; i < 1'000; ++i)
            fr::record(fr::Kind::mark, 2 * i, even, 0xe, i);
    });
    std::thread b([&] {
        for (std::uint64_t i = 0; i < 1'000; ++i)
            fr::record(fr::Kind::mark, 2 * i + 1, odd, 0xd, i);
    });
    a.join();
    b.join();

    fr::Snapshot snap = fr::snapshot();
    auto timeline = fr::mergeTimeline(snap);
    std::size_t even_count = 0, odd_count = 0;
    std::uint64_t last = 0;
    for (const auto &entry : timeline) {
        ASSERT_GE(entry.rec.tick, last);
        last = entry.rec.tick;
        even_count += entry.rec.module == even;
        odd_count += entry.rec.module == odd;
    }
    EXPECT_EQ(even_count, 1'000u);
    EXPECT_EQ(odd_count, 1'000u);
}

// --- watchdog (timing-based; excluded from the tsan filter) -------------

TEST(FlightRecorderWatchdog, HeartbeatsPreventFiring)
{
    std::atomic<bool> stalled{false};
    fr::armWatchdog(0.2, [&] { stalled.store(true); });
    // 0.4 s of wall clock — past the timeout — but with steady beats.
    for (int i = 0; i < 10; ++i) {
        fr::beat();
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    fr::disarmWatchdog();
    EXPECT_FALSE(stalled.load());
    EXPECT_FALSE(fr::watchdogFired());
}

TEST(FlightRecorderWatchdog, FiresOnStallAndRunsHook)
{
    std::atomic<bool> stalled{false};
    fr::armWatchdog(0.15, [&] { stalled.store(true); });
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!stalled.load() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(stalled.load());
    EXPECT_TRUE(fr::watchdogFired());
    fr::disarmWatchdog();
}

} // namespace
