/**
 * @file
 * Parallel-vs-serial simulation kernel differential corpus.
 *
 * The conservative parallel executor (sim/parallel.hh) may not change
 * anything an application observes: every corpus seed — fault
 * injection included — runs on the FtEngine pair placed in one
 * Simulation (the determinism oracle) and with one partition per
 * endpoint, and both must complete, pass the byte-stream oracle, and
 * agree byte-exactly on ledger digests and delivered byte counts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/kv.hh"
#include "apps/testbed_star.hh"
#include "load/open_loop.hh"

#include "fuzz_runner.hh"

namespace
{

using namespace f4t;
using namespace f4t::fuzz;

void
runParallelCorpus(std::uint64_t first_seed, std::uint64_t count)
{
    for (std::uint64_t seed = first_seed; seed < first_seed + count;
         ++seed) {
        Scenario sc = Scenario::fromSeed(seed);
        ASSERT_TRUE(hasFaults(sc.faultsAtoB) || hasFaults(sc.faultsBtoA))
            << "corpus seed " << seed << " lost its fault injection";

        RunResult serial = runScenario(WorldKind::enginePair, sc);
        RunResult partitioned = runEnginePair(sc, {true});

        EXPECT_TRUE(serial.ok())
            << "serial oracle run failed; reproduce with: fuzz_sweep "
            << seed << " 1\n" << serial.failureReport;
        EXPECT_TRUE(partitioned.ok())
            << "partitioned run failed, seed " << seed << "\n"
            << partitioned.failureReport;

        // Partitioned must be byte-exact against the serial oracle.
        EXPECT_EQ(partitioned.ledgerDigest, serial.ledgerDigest)
            << "seed " << seed << ": partitioned kernel changed the "
            << "application-visible byte streams\n  " << sc.describe();
        EXPECT_EQ(partitioned.deliveredBytes, serial.deliveredBytes)
            << "seed " << seed << "\n  " << sc.describe();
        EXPECT_GT(partitioned.deliveredBytes, 0u) << "seed " << seed;
    }
}

// Same 24-seed corpus as the batching differential, sliced for ctest
// parallelism.
TEST(ParallelDifferential, CorpusSlice0) { runParallelCorpus(1, 6); }
TEST(ParallelDifferential, CorpusSlice1) { runParallelCorpus(7, 6); }
TEST(ParallelDifferential, CorpusSlice2) { runParallelCorpus(13, 6); }
TEST(ParallelDifferential, CorpusSlice3) { runParallelCorpus(19, 6); }

// ---------------------------------------------------------------------------
// Open-loop incast differential: N clients behind the shared-buffer
// switch synchronously burst SETs at one server over a faulty
// bottleneck downlink. Switch tail drops plus injected loss force the
// RTO/go-back-N recovery path, and the StarWorld in one Simulation
// must agree byte-exactly (oracle ledger, per-key byte counts, every
// client- and server-side counter) with the partitioned StarWorld.

constexpr std::size_t incastClients = 4;
constexpr std::uint64_t incastRequestsPerClient = 4;
constexpr std::uint32_t incastValueBytes = 8 * 1024;

testbed::StarConfig
incastConfig()
{
    testbed::StarConfig config;
    config.clients = incastClients;
    config.engine.numFpcs = 2;
    config.engine.flowsPerFpc = 32;
    config.engine.maxFlows = 1024;
    // Pool too small for one synchronized round of 4 x 8 KB bursts:
    // every round tail-drops at the server port.
    config.fabric.sharedEgressBytes = 24 * 1024;
    // Plus random loss on the bottleneck cable itself, both ways.
    config.serverLinkFaults.dropProbability = 0.01;
    config.serverLinkFaults.seed = 0xD1FF;
    return config;
}

struct IncastRun
{
    bool completed = false;
    bool oraclePassed = true;
    std::uint64_t ledgerDigest = 0;
    std::uint64_t deliveredBytes = 0;
    std::uint64_t switchDrops = 0;
    /** FNV mix of every application-visible counter. */
    std::uint64_t appFingerprint = 0;
    std::string report;
};

IncastRun
runIncast(testbed::Placement placement)
{
    testbed::StarWorld world(incastConfig(), placement);
    net::StreamOracle oracle;

    apps::F4tSocketApi server_api = world.serverApi();
    apps::KvServerConfig server_config;
    server_config.oracle = &oracle;
    apps::KvServerApp server(server_api, server_config);
    server.start();

    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis;
    std::vector<std::unique_ptr<load::OpenLoopClientApp>> clients;
    for (std::size_t i = 0; i < incastClients; ++i) {
        apis.push_back(world.makeClientApi(i));
        load::OpenLoopConfig ocfg;
        ocfg.peer = testbed::starServerIp();
        ocfg.connections = 1;
        ocfg.streamBase = static_cast<std::uint32_t>(i) * 64;
        ocfg.clientId = static_cast<std::uint32_t>(i);
        ocfg.seed = 0x1CA57;
        ocfg.arrivals =
            load::ArrivalSpec::fixedEvery(sim::microsecondsToTicks(50));
        ocfg.valueSizes = load::SizeSpec::fixedSize(incastValueBytes);
        ocfg.readFraction = 0.0; // synchronized SET bursts
        ocfg.maxRequests = incastRequestsPerClient;
        ocfg.startAt = sim::microsecondsToTicks(30);
        ocfg.oracle = &oracle;
        clients.push_back(
            std::make_unique<load::OpenLoopClientApp>(*apis.back(), ocfg));
        clients.back()->start();
    }

    // Loss recovery rides the 5 ms RTO floor, so give the run room:
    // slices until everyone finished or 200 ms.
    const sim::Tick deadline = sim::millisecondsToTicks(200);
    auto all_done = [&] {
        for (auto &client : clients)
            if (client->completed() < incastRequestsPerClient)
                return false;
        return true;
    };
    while (!all_done() && world.now() < deadline)
        world.runFor(sim::millisecondsToTicks(1));

    IncastRun result;
    result.completed = all_done();
    for (std::size_t i = 0; i < incastClients; ++i)
        oracle.expectFullyDelivered(
            apps::kvSetStream(static_cast<std::uint32_t>(i) * 64));
    result.oraclePassed = oracle.passed();
    result.ledgerDigest = oracle.ledgerDigest();
    result.deliveredBytes = oracle.totalDeliveredBytes();
    result.switchDrops = world.fabric->totalDropped();
    if (!result.oraclePassed)
        result.report = oracle.report();

    // Application-visible state only: per-client request accounting,
    // server-side op/byte counters, per-key byte totals, and the
    // oracle ledger. Switch packet counters are deliberately excluded
    // — partitioning may legally reorder same-tick events across the
    // cut, which can change how many duplicate ACKs/retransmissions
    // cross the fabric without changing a single application byte.
    detail::Fnv app;
    for (auto &client : clients) {
        app.mix(client->issued());
        app.mix(client->dispatched());
        app.mix(client->completed());
        app.mix(client->valueBytesSent());
        app.mix(client->valueBytesReceived());
    }
    app.mix(server.gets());
    app.mix(server.sets());
    app.mix(server.valueBytesIn());
    app.mix(server.valueBytesOut());
    for (const auto &[key, bytes] : server.setBytesByKey()) {
        app.mix(key);
        app.mix(bytes);
    }
    app.mix(result.ledgerDigest);
    result.appFingerprint = app.value;
    return result;
}

TEST(ParallelDifferential, OpenLoopIncastStarWorld)
{
    IncastRun serial = runIncast({});
    IncastRun partitioned = runIncast({true});

    ASSERT_TRUE(serial.completed) << "serial incast run hit the deadline";
    ASSERT_TRUE(partitioned.completed)
        << "partitioned incast run hit the deadline";

    EXPECT_TRUE(serial.oraclePassed) << serial.report;
    EXPECT_TRUE(partitioned.oraclePassed) << partitioned.report;

    // The scenario must actually stress the bottleneck.
    EXPECT_GT(serial.switchDrops, 0u)
        << "incast config no longer overflows the shared egress pool";
    EXPECT_GT(serial.deliveredBytes, 0u);

    // Byte-exact agreement: serial oracle vs partitioned kernel.
    EXPECT_EQ(partitioned.ledgerDigest, serial.ledgerDigest)
        << "partitioned star world changed application byte streams";
    EXPECT_EQ(partitioned.deliveredBytes, serial.deliveredBytes);
    EXPECT_EQ(partitioned.appFingerprint, serial.appFingerprint)
        << "per-client/server/switch counters diverged serial vs parallel";
}

} // namespace
