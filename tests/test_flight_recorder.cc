/**
 * @file
 * Flight recorder: ring semantics and tick order, the probe kinds a
 * pair world records, failure-triggered dumps, malformed dumps, the
 * watchdog's timeout variable, and the wall-clock watchdog.
 *
 * Suite naming is deliberate: FlightRecorderDeathTest runs first
 * (gtest orders *DeathTest suites ahead of the rest), so the forked
 * children see a process where defaultWatchdogSeconds() has not been
 * memoized yet and the watchdog thread has never been started — a
 * fork would not carry a live thread across.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <stdlib.h>
#include <sys/wait.h>

#include "apps/testbed.hh"
#include "harness.hh"
#include "sim/flight_recorder.hh"
#include "sim/random.hh"
#include "sim/parallel.hh"
#include "sim/probe.hh"
#include "sim/simulation.hh"

using namespace f4t;
using sim::Tick;
using test::onlyDumpIn;
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

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
expectTickSorted(const std::vector<fr::Record> &timeline)
{
    for (std::size_t i = 1; i < timeline.size(); ++i)
        ASSERT_GE(timeline[i].tick, timeline[i - 1].tick);
}

/** Channel stub: fixed lookahead, no cross traffic. */
struct IdleChannel : sim::CrossChannel
{
    explicit IdleChannel(Tick la) : la_(la) {}
    Tick lookahead() const override { return la_; }
    std::size_t drainInto() override { return 0; }
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

    auto timeline = fr::tickOrdered(snap);
    ASSERT_GE(timeline.size(), 32u);
    expectTickSorted(timeline);

    // The timeline names the module and the flow.
    bool named = false;
    for (const fr::Record &rec : timeline) {
        std::string line = fr::formatEntry(snap, rec);
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
    fr::clear();

    // The wedge event sleeps far past the 0.25 s watchdog default set
    // at static init: the window never reaches its barrier, no beat
    // arrives, and the executor's armed watchdog dumps and aborts.
    auto stall = [] {
        sim::Simulation pa, pb;
        sim::ParallelExecutor ex;
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
    auto timeline = fr::tickOrdered(snap);
    ASSERT_FALSE(timeline.empty());
    expectTickSorted(timeline);
    bool saw_wedge_dispatch = false;
    for (const fr::Record &rec : timeline) {
        if (rec.kind == static_cast<std::uint8_t>(fr::Kind::evDispatch) &&
            rec.tick == 500) {
            saw_wedge_dispatch = true;
        }
    }
    EXPECT_TRUE(saw_wedge_dispatch);

    ::unsetenv("F4T_DUMP_DIR");
    std::filesystem::remove_all(dir);
}

TEST(FlightRecorderDeathTest, UnwritableCrashDumpSaysSo)
{
    // A dump directory that does not exist: no dump can be written,
    // and the crash log says which file it could not write.
    char dir[] = "/tmp/f4tfr-missing-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    std::string missing = std::string(dir) + "/no-such-dir";
    ::setenv("F4T_DUMP_DIR", missing.c_str(), 1);

    EXPECT_DEATH(f4t_assert(false, "injected forensics failure"),
                 "flight recorder: cannot write " + missing +
                     "/f4t-crash-[0-9]+\\.f4tfr");

    ::unsetenv("F4T_DUMP_DIR");
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

/** Exit 0 after printing what defaultWatchdogSeconds() makes of
 *  F4T_WATCHDOG_SECS=@p value; it is read once, so only a fresh
 *  (forked) process may call this. */
[[noreturn]] void
readWatchdogSeconds(const char *value)
{
    ::setenv("F4T_WATCHDOG_SECS", value, 1);
    std::fprintf(stderr, "secs=%g\n", fr::defaultWatchdogSeconds());
    std::exit(0);
}

TEST(FlightRecorderDeathTest, WatchdogSecondsAreReadStrictly)
{
    // Each child is the first reader of the variable: this process
    // never reads it (the stall test arms the watchdog in its child).
    for (const char *bad : {"abc", "-5", "10x", "nan", "inf", "1e3", " 5",
                            "0x10", "1.2.3", "."}) {
        EXPECT_EXIT(readWatchdogSeconds(bad), testing::ExitedWithCode(1),
                    std::string("fatal: F4T_WATCHDOG_SECS='") + bad + "'")
            << bad;
    }
    // 0 disables the watchdog; unset or empty means 120 s.
    const std::pair<const char *, const char *> good[] = {
        {"0", "secs=0\n"},   {"2.5", "secs=2.5\n"}, {"7.", "secs=7\n"},
        {".5", "secs=0.5\n"}, {"", "secs=120\n"}};
    for (const auto &[value, want] : good) {
        EXPECT_EXIT(readWatchdogSeconds(value), testing::ExitedWithCode(0),
                    want)
            << value;
    }
}

// --- ring semantics -----------------------------------------------------

TEST(FlightRecorder, RecordsAppearInSnapshotInOrder)
{
    fr::clear();
    std::uint16_t module = fr::internModule("test.ring");
    fr::record(fr::Kind::mark, 10, module, 1, 100, 200);
    fr::record(fr::Kind::linkTx, 20, module, 2, 300);
    fr::record(fr::Kind::switchDrop, 30, module, 3);

    fr::Snapshot snap = fr::snapshot();
    EXPECT_EQ(snap.totalWritten, 3u);
    ASSERT_EQ(snap.records.size(), 3u);
    EXPECT_EQ(snap.records[0].tick, 10u);
    EXPECT_EQ(snap.records[0].a, 100u);
    EXPECT_EQ(snap.records[0].b, 200u);
    EXPECT_EQ(snap.records[1].kind,
              static_cast<std::uint8_t>(fr::Kind::linkTx));
    EXPECT_EQ(snap.records[2].flow, 3u);
    ASSERT_LT(module, snap.modules.size());
    EXPECT_EQ(snap.modules[module], "test.ring");
}

TEST(FlightRecorder, WrapKeepsLastCapacityRecordsOldestFirst)
{
    fr::clear();
    const std::uint64_t total = fr::ringCapacity + 123;
    for (std::uint64_t i = 0; i < total; ++i)
        fr::record(fr::Kind::mark, i, 0, 0, i);

    fr::Snapshot snap = fr::snapshot();
    EXPECT_EQ(snap.totalWritten, total);
    ASSERT_EQ(snap.records.size(), fr::ringCapacity);
    EXPECT_EQ(snap.records.front().tick, 123u); // oldest survivor
    for (std::size_t i = 0; i < snap.records.size(); ++i)
        ASSERT_EQ(snap.records[i].tick, 123 + i);
}

TEST(FlightRecorder, TimelineSortsByTickAndKeepsWriteOrderOnTies)
{
    // Write order is not tick order: a partitioned run writes one
    // partition's window before the other's, and link_tx is stamped at
    // its serialization start, before records written ahead of it.
    fr::clear();
    std::uint16_t pa = fr::internModule("test.partition_a");
    std::uint16_t pb = fr::internModule("test.partition_b");
    const std::pair<Tick, std::uint16_t> writes[] = {
        {100, pa}, {300, pa}, {300, pa}, // partition a's window
        {100, pb}, {200, pb}, {300, pb}, // then partition b's
        {250, pa},                       // stamped before it was written
    };
    for (std::uint64_t i = 0; i < std::size(writes); ++i)
        fr::record(fr::Kind::mark, writes[i].first, writes[i].second, 0, i);

    fr::Snapshot snap = fr::snapshot();
    ASSERT_EQ(snap.records.size(), std::size(writes));
    for (std::uint64_t i = 0; i < std::size(writes); ++i)
        EXPECT_EQ(snap.records[i].a, i); // the ring keeps write order

    std::vector<std::uint64_t> order;
    for (const fr::Record &rec : fr::tickOrdered(snap))
        order.push_back(rec.a);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 3, 4, 6, 1, 2, 5}));
}

TEST(FlightRecorder, SnapshotRoundTripsThroughDumpFile)
{
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
    EXPECT_EQ(snap.totalWritten, 100u);
    ASSERT_EQ(snap.records.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i) {
        ASSERT_EQ(snap.records[i].tick, 7 * i);
        ASSERT_EQ(snap.records[i].a, i);
        ASSERT_EQ(snap.records[i].b, 2 * i);
    }
    ASSERT_LT(module, snap.modules.size());
    EXPECT_EQ(snap.modules[module], "test.roundtrip");
    std::filesystem::remove_all(dir);
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
        ASSERT_LE(snap.totalWritten, fr::ringCapacity);
        bool fresh = false;
        for (const fr::Record &rec : snap.records) {
            ASSERT_LT(rec.module, snap.modules.size());
            if (snap.modules[rec.module].find(".fpc") != std::string::npos)
                fpc_kinds.insert(static_cast<fr::Kind>(rec.kind));
            fresh |= !decoded.count(rec.kind);
        }
        fr::clear();
        if (!fresh)
            continue;
        ASSERT_TRUE(fr::writeSnapshot(snap, path, "kinds"));
        fr::Snapshot read;
        std::string reason, error;
        ASSERT_TRUE(fr::readDump(path, read, reason, error)) << error;
        for (const fr::Record &rec : fr::tickOrdered(read))
            decoded.emplace(rec.kind, fr::formatEntry(read, rec));
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
    // A real dump of an engine pair's first microseconds, cut to at
    // most its last 24 records so every truncation point can be tried.
    fr::clear();
    {
        testbed::EnginePairWorld world(1);
        world.apiA(0).connect(testbed::ipB(), 7);
        world.runFor(sim::microsecondsToTicks(5));
    }
    fr::Snapshot snap = fr::snapshot();
    ASSERT_FALSE(snap.records.empty());
    if (snap.records.size() > 24)
        snap.records.erase(snap.records.begin(), snap.records.end() - 24);
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
        for (const fr::Record &rec : fr::tickOrdered(read)) {
            std::string line = fr::formatEntry(read, rec);
            EXPECT_NE(line.find(" flow="), std::string::npos) << line;
            if (rec.kind >= fr::numKinds) {
                EXPECT_NE(line.find(" unknown flow="), std::string::npos)
                    << line;
            }
        }
        return true;
    };
    ASSERT_TRUE(decodes(good));

    // Every proper prefix misses part of the ring, so it is an error,
    // never a shorter snapshot.
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

    // A version-1 dump (one ring per thread) is refused whole.
    std::string v1 = good;
    const std::uint32_t version1 = 1;
    std::memcpy(v1.data() + 8, &version1, sizeof version1);
    writeBytes(path, v1);
    fr::Snapshot read;
    std::string reason, error;
    ASSERT_FALSE(fr::readDump(path, read, reason, error));
    EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
    EXPECT_EQ(blackboxStatus(path), 1);

    // A kind byte past the table decodes as unknown, with both words.
    snap.records.front().kind = 0xff;
    ASSERT_TRUE(fr::writeSnapshot(snap, path, "unknown kind"));
    ASSERT_TRUE(fr::readDump(path, read, reason, error)) << error;
    bool unknown = false;
    for (const fr::Record &rec : fr::tickOrdered(read)) {
        if (rec.kind == 0xff) {
            std::string line = fr::formatEntry(read, rec);
            EXPECT_NE(line.find(" unknown flow="), std::string::npos);
            EXPECT_NE(line.find(" a="), std::string::npos) << line;
            unknown = true;
        }
    }
    EXPECT_TRUE(unknown);
    EXPECT_EQ(blackboxStatus(path), 0);
    std::filesystem::remove_all(dir);
}

// --- watchdog (timing-based) ---------------------------------------------

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
