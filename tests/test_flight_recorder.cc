/**
 * @file
 * Flight recorder: ring semantics and reuse, per-thread merge, the
 * probe kinds a pair world records, failure-triggered dumps, malformed
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
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <sys/wait.h>

#include "apps/testbed.hh"
#include "sim/flight_recorder.hh"
#include "sim/random.hh"
#include "sim/parallel.hh"
#include "sim/probe.hh"
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

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
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
            pa.queue().scheduleCallback(t, [] {});
        pa.queue().scheduleCallback(500, [] {
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
            sim.queue().scheduleCallback(t, [] {});
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

TEST(FlightRecorder, FpcRecordsEachAbsorbedEventKind)
{
    // Twelve echo connections through an FtEngine pair whose one FPC
    // holds eight TCBs, so flows start in DRAM and migrate both ways; a
    // scheduled drop forces a retransmission timeout, TIME_WAIT
    // expiries time out FPC-resident flows, a connect to a port nobody
    // listens on is refused, and a stray ACK for no connection is
    // dropped. Every kind a site of the pair world probes must reach a
    // .f4tfr decode spelled with its labels — the span builder's join
    // records (lib_send ... fpu_issue) and the payloads they pair with
    // (the absorb pointers, link_tx's seq, the connect/accept tuple
    // hash) included — and the FPC must record each absorbed event
    // kind under its own module. (The pair world
    // never fills the reorder buffer or congests an FPC, and has no
    // software stack: rx_ooo_drop, sched_rebalance and soft_tcp_state
    // are not in the list.)
    fr::setEnabled(true);
    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 8;
    config.maxFlows = 64;
    config.tcbCacheLines = 2;
    net::FaultModel faults;
    // The first echo request on the wire; the replies run clean.
    faults.dropAtTicks.push_back(sim::microsecondsToTicks(7.5));
    testbed::EnginePairWorld world(1, config, faults, 100e9,
                                   net::FaultModel{});
    auto client = world.apiA(0);
    auto server = world.apiB(0);

    constexpr int connections = 12;
    constexpr int roundTrips = 3;
    std::vector<std::uint8_t> buf(256, 0x5a);
    apps::SocketApi::Handlers server_handlers;
    server_handlers.onReadable = [&](int conn, std::size_t) {
        std::size_t n = server.recv(conn, buf);
        server.send(conn, std::span<const std::uint8_t>(buf.data(), n));
    };
    server_handlers.onPeerClosed = [&](int conn) { server.close(conn); };
    // The passive closer finishes without TIME_WAIT.
    int closed = 0;
    server_handlers.onClosed = [&](int) { ++closed; };
    server.setHandlers(server_handlers);
    server.listen(7);

    std::map<int, int> echoes;
    apps::SocketApi::Handlers client_handlers;
    client_handlers.onConnected = [&](int conn) {
        client.send(conn, std::span<const std::uint8_t>(buf.data(), 64));
    };
    client_handlers.onReadable = [&](int conn, std::size_t) {
        client.recv(conn, buf);
        if (++echoes[conn] < roundTrips)
            client.send(conn,
                        std::span<const std::uint8_t>(buf.data(), 64));
        else
            client.close(conn);
    };
    client.setHandlers(client_handlers);
    for (int i = 0; i < connections; ++i)
        client.connect(testbed::ipB(), 7);
    client.connect(testbed::ipB(), 9); // no listener: SYN rejected
    net::TcpHeader stray;
    stray.srcPort = 4242;
    stray.dstPort = 7;
    stray.flags = net::TcpFlags::ack;
    world.sim.queue().scheduleCallback(
        sim::microsecondsToTicks(30), [&] {
            world.link->aToB().send(net::Packet::makeTcp(
                testbed::macA(), testbed::macB(), testbed::ipA(),
                testbed::ipB(), stray, net::PayloadBuffer()));
        });

    // Collect in short slices, clearing between them, so the ring
    // never wraps over an early record, for 16 ms: past the 5 ms
    // retransmission timeout and the 10 ms TIME_WAIT after it. A slice
    // holding a kind not seen yet goes through a dump file and the
    // decoder.
    char dir[] = "/tmp/f4tfr-kinds-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    std::string path = std::string(dir) + "/kinds.f4tfr";
    std::set<fr::Kind> fpc_kinds;
    std::map<std::uint8_t, std::string> decoded;
    fr::clear();
    for (int slice = 0; slice < 3200; ++slice) {
        world.runFor(sim::microsecondsToTicks(5));
        fr::Snapshot snap = fr::snapshot();
        bool fresh = false;
        for (const auto &ring : snap.rings) {
            ASSERT_LE(ring.totalWritten, fr::ringCapacity);
            for (const fr::Record &rec : ring.records) {
                ASSERT_LT(rec.module, snap.modules.size());
                if (snap.modules[rec.module].find(".fpc") !=
                    std::string::npos)
                    fpc_kinds.insert(static_cast<fr::Kind>(rec.kind));
                fresh |= !decoded.count(rec.kind);
            }
        }
        fr::clear();
        if (!fresh)
            continue;
        ASSERT_TRUE(fr::writeSnapshot(snap, path, "kinds"));
        fr::Snapshot read;
        std::string reason, error;
        ASSERT_TRUE(fr::readDump(path, read, reason, error)) << error;
        for (const auto &entry : fr::mergeTimeline(read))
            decoded.emplace(entry.rec.kind, fr::formatEntry(read, entry));
    }
    std::filesystem::remove_all(dir);
    ASSERT_EQ(closed, connections) << "echo connections never closed";

    for (fr::Kind kind : {fr::Kind::fpcUserConnect, fr::Kind::fpcUserSend,
                          fr::Kind::fpcUserRecv, fr::Kind::fpcRxSegment,
                          fr::Kind::fpcUserClose, fr::Kind::fpcTimeout})
        EXPECT_TRUE(fpc_kinds.count(kind)) << sim::probe::info(kind).name;

    using K = fr::Kind;
    for (K kind : {K::fpcUserSend, K::fpcUserRecv, K::fpcUserConnect,
                   K::fpcUserClose, K::fpcRxSegment, K::fpcTimeout,
                   K::fpcInstall, K::fpcEvict, K::fpuPass, K::schedMigrate,
                   K::schedEvict, K::schedAllocDram, K::schedSwapIn,
                   K::linkTx, K::linkFault, K::pcieDma, K::pcieDoorbell,
                   K::rxParse, K::rxDropUnknown, K::rxSynReject,
                   K::pktgenSegment,
                   K::pktgenRetransmit, K::pktgenControl, K::memCacheMiss,
                   K::memInsert, K::memExtract, K::memSwapRequest,
                   K::engineAccept, K::engineConnect, K::engineRecycle,
                   K::timerFire, K::libSend, K::libDeliver, K::hifFetch,
                   K::hifFlush, K::upcallPost, K::fpuIssue}) {
        const sim::probe::KindInfo &row = sim::probe::info(kind);
        auto it = decoded.find(static_cast<std::uint8_t>(kind));
        if (it == decoded.end()) {
            ADD_FAILURE() << row.name << " never reached a dump";
            continue;
        }
        const std::string &line = it->second;
        EXPECT_NE(line.find(std::string(" ") + row.name + " flow="),
                  std::string::npos)
            << line;
        for (const char *label : {row.a, row.b}) {
            if (label != nullptr) {
                EXPECT_NE(line.find(std::string(" ") + label + "="),
                          std::string::npos)
                    << line;
            }
        }
    }
}

// --- malformed dumps -----------------------------------------------------

/** Exit status of f4t_blackbox on @p path: 0-255, or -1 when it died
 *  on a signal. A sanitizer report in the decoder exits 99. */
int
blackboxStatus(const std::string &path)
{
    std::string cmd = std::string("ASAN_OPTIONS=exitcode=99 "
                                  "UBSAN_OPTIONS=halt_on_error=1:exitcode=99 ") +
                      F4T_BLACKBOX + " '" + path + "' >/dev/null 2>&1";
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FlightRecorder, MutatedDumpsDecodeOrFailCleanly)
{
    // A real dump of an engine pair's first microseconds, cut to a few
    // records per ring so every truncation point can be tried.
    fr::setEnabled(true);
    fr::clear();
    {
        testbed::EnginePairWorld world(1);
        world.apiA(0).connect(testbed::ipB(), 7);
        world.runFor(sim::microsecondsToTicks(5));
    }
    fr::Snapshot snap = fr::snapshot();
    for (auto &ring : snap.rings) {
        if (ring.records.size() > 24)
            ring.records.erase(ring.records.begin(),
                               ring.records.end() - 24);
    }
    char dir[] = "/tmp/f4tfr-mutate-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    std::string base = std::string(dir) + "/base.f4tfr";
    std::string path = std::string(dir) + "/mutant.f4tfr";
    ASSERT_TRUE(fr::writeSnapshot(snap, base, "mutation seed"));
    std::string good = slurpFile(base);
    ASSERT_GT(good.size(), 64u);

    // Either a clean error, or a snapshot every record of which
    // decodes; @return whether it decoded.
    auto decodes = [&](const std::string &bytes) {
        writeBytes(path, bytes);
        fr::Snapshot read;
        std::string reason, error;
        if (!fr::readDump(path, read, reason, error)) {
            EXPECT_FALSE(error.empty());
            return false;
        }
        for (const auto &entry : fr::mergeTimeline(read)) {
            std::string line = fr::formatEntry(read, entry);
            EXPECT_NE(line.find(" flow="), std::string::npos) << line;
            if (entry.rec.kind >= fr::numKinds) {
                EXPECT_NE(line.find(" unknown flow="), std::string::npos)
                    << line;
            }
        }
        return true;
    };
    ASSERT_TRUE(decodes(good));

    // Every proper prefix misses part of the last ring, so it is an
    // error, never a shorter snapshot.
    for (std::size_t len = 0; len < good.size(); ++len) {
        ASSERT_FALSE(decodes(good.substr(0, len))) << "prefix " << len;
        if (len % 61 == 0) {
            ASSERT_EQ(blackboxStatus(path), 1) << "prefix " << len;
        }
    }

    // Seeded byte flips anywhere in the file.
    sim::Random rng(0xf4f4);
    std::size_t decoded = 0;
    for (int mutant = 0; mutant < 3000; ++mutant) {
        std::string bytes = good;
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
            bytes[rng.below(bytes.size())] ^=
                static_cast<char>(1 + rng.below(255));
        decoded += decodes(bytes);
        if (mutant % 50 == 0) {
            int status = blackboxStatus(path);
            ASSERT_TRUE(status == 0 || status == 1)
                << "mutant " << mutant << " exit " << status;
        }
    }
    EXPECT_GT(decoded, 0u);

    // A kind byte past the table decodes as unknown, with both words.
    for (auto &ring : snap.rings) {
        if (!ring.records.empty())
            ring.records.front().kind = 0xff;
    }
    ASSERT_TRUE(fr::writeSnapshot(snap, path, "unknown kind"));
    fr::Snapshot read;
    std::string reason, error;
    ASSERT_TRUE(fr::readDump(path, read, reason, error)) << error;
    bool unknown = false;
    for (const auto &entry : fr::mergeTimeline(read)) {
        if (entry.rec.kind == 0xff) {
            std::string line = fr::formatEntry(read, entry);
            EXPECT_NE(line.find(" unknown flow="), std::string::npos);
            EXPECT_NE(line.find(" a="), std::string::npos) << line;
            unknown = true;
        }
    }
    EXPECT_TRUE(unknown);
    EXPECT_EQ(blackboxStatus(path), 0);
    std::filesystem::remove_all(dir);
}

// --- cross-thread merge (named to run under the tsan preset) ------------

TEST(FlightRecorderParallel, TwoThreadMergeIsTickSorted)
{
    fr::setEnabled(true);
    fr::clear();
    std::uint16_t even = fr::internModule("test.even");
    std::uint16_t odd = fr::internModule("test.odd");

    // Both threads stay alive until both have recorded: a thread that
    // exits first retires its ring, and the other could take it over.
    std::latch recorded(2);
    std::thread a([&] {
        for (std::uint64_t i = 0; i < 1'000; ++i)
            fr::record(fr::Kind::mark, 2 * i, even, 0xe, i);
        recorded.arrive_and_wait();
    });
    std::thread b([&] {
        for (std::uint64_t i = 0; i < 1'000; ++i)
            fr::record(fr::Kind::mark, 2 * i + 1, odd, 0xd, i);
        recorded.arrive_and_wait();
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

TEST(FlightRecorderParallel, ExitedThreadRingsAreReused)
{
    // More short-lived threads than the ring table has slots: each
    // records one mark and exits. Their rings are handed on instead of
    // leaked, so the table does not fill and the last thread's record
    // is still in the snapshot after it exited.
    fr::setEnabled(true);
    fr::clear();
    std::uint16_t module = fr::internModule("test.shortlived");
    constexpr std::uint64_t threads = fr::detail::maxRings + 44;
    for (std::uint64_t i = 0; i < threads; ++i) {
        std::thread([&] {
            fr::record(fr::Kind::mark, 1'000 + i, module, 0x5, i);
        }).join();
    }

    fr::Snapshot snap = fr::snapshot();
    EXPECT_LT(snap.rings.size(), fr::detail::maxRings);
    std::size_t marks = 0;
    bool saw_last = false;
    for (const auto &ring : snap.rings) {
        for (const fr::Record &rec : ring.records) {
            if (rec.module != module)
                continue;
            ++marks;
            saw_last |= rec.a == threads - 1;
        }
    }
    EXPECT_TRUE(saw_last) << "the last thread's record is missing";
    // Reuse starts a ring over, so only the survivors' marks remain.
    EXPECT_GE(marks, 1u);
    EXPECT_LT(marks, threads);
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
