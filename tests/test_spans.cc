/**
 * @file
 * Tests for the request spans rebuilt from a probe capture
 * (obs/spans.hh): full end-to-end span trees on an all-F4T engine pair
 * (the span-sum acceptance check), wire re-entry under retransmission,
 * FPC<->DRAM migration mid-request, event coalescing, the slowest
 * request's critical path, and hand-written record sequences fed
 * straight to the builder for teardown and duplicate arrivals.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/http.hh"
#include "apps/testbed.hh"
#include "apps/workloads.hh"
#include "obs/spans.hh"
#include "obs/stage_report.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

using obs::Request;
using obs::Spans;
using obs::Stage;
using sim::fr::Kind;
using sim::fr::Record;

double
us(sim::Tick t)
{
    return sim::ticksToSeconds(t) * 1e6;
}

/**
 * An all-F4T engine pair serving HTTP: server on engine A, one
 * closed-loop load generator on engine B, every probe record of the
 * shared simulation captured. Both hosts are bound, so every request
 * (client->server request and server->client response alike) closes
 * its full span tree.
 */
struct CapturedHttpWorld
{
    explicit CapturedHttpWorld(std::size_t connections,
                               core::EngineConfig config = {})
        : world(std::make_unique<testbed::EnginePairWorld>(2, config))
    {
        world->sim.setCapture(&capture);
        apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world->sim, *world->runtimeA, 0, world->cpuA->core(0)));
        apps::HttpServerConfig server_config;
        server = std::make_unique<apps::HttpServerApp>(*apis.back(),
                                                       server_config);
        server->start();
        world->sim.runFor(sim::microsecondsToTicks(20));

        apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world->sim, *world->runtimeB, 0, world->cpuB->core(0)));
        apps::HttpLoadGenConfig gen_config;
        gen_config.peer = testbed::ipA();
        gen_config.port = 80;
        gen_config.connections = connections;
        gen = std::make_unique<apps::HttpLoadGenApp>(*apis.back(),
                                                     nullptr, gen_config);
        gen->start();
    }

    ~CapturedHttpWorld() { world->sim.setCapture(nullptr); }

    std::unique_ptr<Spans>
    runMs(double ms)
    {
        world->sim.runFor(sim::millisecondsToTicks(ms));
        return std::make_unique<Spans>(capture, world->spanHosts());
    }

    std::vector<Record> capture;
    std::unique_ptr<testbed::EnginePairWorld> world;
    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis;
    std::unique_ptr<apps::HttpServerApp> server;
    std::unique_ptr<apps::HttpLoadGenApp> gen;
};

/** A bulk transfer from engine A to engine B over a 10 Gbps, 250 us
 *  link with drops at @p drops, captured. */
std::unique_ptr<Spans>
lossyBulk(std::vector<double> drops_ms, std::uint64_t seed, double run_ms)
{
    net::FaultModel faults;
    for (double ms : drops_ms)
        faults.dropAtTicks.push_back(sim::millisecondsToTicks(ms));
    faults.seed = seed;
    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 16;
    config.maxFlows = 64;
    testbed::EnginePairWorld world(1, config, faults, 10e9, {},
                                   sim::microsecondsToTicks(250));
    std::vector<Record> capture;
    world.sim.setCapture(&capture);

    auto sink_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(sink_api, sink_config);
    sink.start();
    auto send_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 8192;
    apps::BulkSenderApp sender(send_api, sender_config);
    sender.start();

    world.sim.runFor(sim::millisecondsToTicks(run_ms));
    world.sim.setCapture(nullptr);
    return std::make_unique<Spans>(capture, world.spanHosts());
}

// ---------------------------------------------------------------------
// end-to-end span trees (the acceptance check)
// ---------------------------------------------------------------------

TEST(CausalTrace, SpanTreeSumsToEndToEndLatency)
{
    CapturedHttpWorld w(4);
    std::unique_ptr<Spans> spans = w.runMs(3.0);

    ASSERT_GT(spans->completed(), 50u);
    // Every completed (non-aborted) request sampled exactly one e2e
    // latency.
    EXPECT_EQ(spans->e2e().count(), spans->completed());

    // A clean request — not merged into a neighbour's event, exactly
    // one wire traversal — hands off synchronously at every stage
    // boundary, so its spans tile [begin, end] exactly: the stage
    // latencies sum to the measured end-to-end latency.
    std::size_t clean = 0;
    for (const Request &r : spans->requests()) {
        if (!r.done || r.aborted || r.merged || r.wireEntries != 1)
            continue;
        ++clean;
        sim::Tick covered = r.sampledTotal();
        ASSERT_LE(covered, r.latency());
        EXPECT_EQ(covered, r.latency())
            << "request " << r.id << " has a gap of "
            << (r.latency() - covered) << " ticks";
        // The full sender->receiver chain: appQueue, doorbell, pcie,
        // fpcQueue, fpcExec, wire, rxParse, then the peer's fpcQueue,
        // fpcExec, upcall.
        EXPECT_EQ(r.spans.size(), 10u) << "request " << r.id;
        sim::Tick at = r.begin;
        for (const obs::Span &span : r.spans) {
            EXPECT_EQ(span.begin, at) << "request " << r.id;
            at = span.end;
        }
        EXPECT_EQ(at, r.end) << "request " << r.id;
    }
    ASSERT_GT(clean, 20u);
    EXPECT_EQ(clean, spans->completed());

    // Fig. 12 consistency: the histogram-derived p50 must agree with
    // the median recomputed from the span trees.
    std::vector<double> latencies;
    for (const Request &r : spans->requests()) {
        if (r.done && !r.aborted)
            latencies.push_back(us(r.latency()));
    }
    std::sort(latencies.begin(), latencies.end());
    double median = latencies[latencies.size() / 2];
    EXPECT_NEAR(spans->e2e().percentile(50.0), median,
                0.05 * median + 1e-9);
}

TEST(CausalTrace, RetransmissionReentersWireStage)
{
    // Deterministic drops on the data direction force retransmissions:
    // the retransmitted byte range re-enters the wire stage, the
    // superseded span is abandoned (kept in the tree, not sampled).
    // Drop well into the transfer, once the window is wide enough for
    // duplicate ACKs to trigger fast retransmit (an early-slow-start
    // drop would wait out a full RTO instead).
    std::unique_ptr<Spans> spans = lossyBulk({15, 25}, 7, 45);

    EXPECT_GT(spans->wireReentries(), 0u);
    EXPECT_GE(spans->abandonedSpans(), spans->wireReentries());
    EXPECT_GT(spans->completed(), 0u);

    // At least one request carries the retransmission in its tree:
    // several wire entries, with the superseded span abandoned.
    bool found = false;
    for (const Request &r : spans->requests()) {
        if (r.wireEntries < 2)
            continue;
        for (const obs::Span &s : r.spans) {
            if (s.stage == Stage::wire && s.abandoned)
                found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(CausalTrace, SlowestRequestIsTheE2eMaximum)
{
    // The retransmitted requests form the tail; the critical path must
    // be printed for the request whose e2e is the histogram maximum,
    // wherever it sits among the run's requests.
    std::unique_ptr<Spans> spans = lossyBulk({15, 25}, 7, 45);
    const Request *slowest = spans->slowest();
    ASSERT_NE(slowest, nullptr);
    EXPECT_DOUBLE_EQ(us(slowest->latency()), spans->e2e().max());
    for (const Request &r : spans->requests()) {
        if (r.sampled) {
            EXPECT_LE(r.latency(), slowest->latency());
        }
    }

    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    obs::printSlowestCriticalPath(out, *spans);
    std::rewind(out);
    char line[160] = {};
    ASSERT_NE(std::fgets(line, sizeof line, out), nullptr);
    std::fclose(out);
    char expected[64];
    std::snprintf(expected, sizeof expected, "req#%u flow=%u e2e=%.3fus",
                  slowest->id, slowest->flow, spans->e2e().max());
    EXPECT_EQ(std::string(line).rfind(expected, 0), 0u) << line;
}

TEST(CausalTrace, SurvivesConnectionMigrationMidRequest)
{
    // More flows than one FPC holds: TCBs ping-pong between the FPC
    // and DRAM. Coverage by the FPU pass's merged pointers follows a
    // request across the migration, so requests in flight still close
    // their spans.
    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 8;
    config.maxFlows = 64;
    CapturedHttpWorld w(16, config);
    std::unique_ptr<Spans> spans = w.runMs(4.0);

    EXPECT_GT(w.world->engineA->fpc(0).evictions(), 0u)
        << "workload did not force migrations; test needs tightening";
    EXPECT_GT(spans->completed(), 100u);
    // Migrated or not, requests must balance: everything started
    // either completed, aborted, or is still in flight.
    EXPECT_EQ(spans->started(),
              spans->completed() + spans->aborted() + spans->live());
    std::size_t live = 0;
    for (const Request &r : spans->requests())
        live += !r.done;
    EXPECT_EQ(live, spans->live());
    EXPECT_LE(live, 16u);
}

TEST(CausalTrace, CoalescedRequestsCompleteViaOffsetCoverage)
{
    // Back-to-back small sends on one flow coalesce in the scheduler
    // window; a merged request's fpcQueue closes at the absorb of the
    // surviving event, whose pointer covers its target, and it must
    // still complete.
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 4096;
    testbed::EnginePairWorld world(1, config);
    std::vector<Record> capture;
    world.sim.setCapture(&capture);

    auto sink_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(sink_api, sink_config);
    sink.start();
    auto send_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 128;
    apps::BulkSenderApp sender(send_api, sender_config);
    sender.start();

    world.sim.runFor(sim::millisecondsToTicks(2));
    world.sim.setCapture(nullptr);
    Spans spans(capture, world.spanHosts());

    EXPECT_GT(spans.merged(), 0u);
    EXPECT_GT(spans.completed(), 0u);
    bool merged_completed = false;
    for (const Request &r : spans.requests()) {
        if (r.merged && r.done && !r.aborted) {
            merged_completed = true;
            // Closed by another event's absorb, it still rode the FPU
            // pass of that event: fpcQueue then fpcExec.
            EXPECT_EQ(r.spans.at(3).stage, Stage::fpcQueue);
            EXPECT_EQ(r.spans.at(4).stage, Stage::fpcExec);
        }
    }
    EXPECT_TRUE(merged_completed);
}

// ---------------------------------------------------------------------
// hand-written record sequences
// ---------------------------------------------------------------------

/** Records stamped under named modules, as a capture would hold. */
struct RecordScript
{
    std::vector<Record> records;

    void
    add(const std::string &module, Kind kind, sim::Tick tick,
        std::uint32_t flow, std::uint64_t a = 0, std::uint64_t b = 0)
    {
        records.push_back({tick, a, b, flow, sim::fr::internModule(module),
                           static_cast<std::uint8_t>(kind), 0});
    }
};

const std::vector<obs::SpanHost> scriptHosts = {
    {"spansA.engine", "spansA.runtime", "spansA.link"},
    {"spansB.engine", "spansB.runtime", "spansB.link"},
};

TEST(CausalTrace, FlowTeardownAbortsLiveRequests)
{
    RecordScript s;
    s.add("spansA.engine", Kind::engineConnect, 0, 5, 0xabcd, 1000);
    s.add("spansA.runtime", Kind::libSend, 0, 5, 100);
    s.add("spansA.runtime", Kind::libSend, 10, 5, 200);
    s.add("spansA.engine", Kind::engineRecycle, 50, 5, 0);
    Spans spans(s.records, scriptHosts);

    EXPECT_EQ(spans.started(), 2u);
    EXPECT_EQ(spans.aborted(), 2u);
    EXPECT_EQ(spans.live(), 0u);
    for (const Request &r : spans.requests()) {
        EXPECT_TRUE(r.aborted);
        EXPECT_EQ(r.end, sim::Tick{50});
        // The open doorbell span is abandoned, not sampled.
        EXPECT_TRUE(r.spans.back().abandoned);
    }
    // Aborted requests do not pollute the latency distribution.
    EXPECT_EQ(spans.e2e().count(), 0u);
    EXPECT_EQ(spans.stageTotal(Stage::doorbell).count(), 0u);
}

TEST(CausalTrace, DuplicateArrivalIsCountedAndChainCompletes)
{
    // One 100-byte request from A (flow 1) to B (flow 2) through every
    // stage, with its segment arriving twice at B.
    RecordScript s;
    const std::uint32_t hash = 0x5eed;
    s.add("spansA.engine", Kind::engineConnect, 0, 1, hash, 1000);
    s.add("spansB.engine", Kind::engineAccept, 0, 2, hash, 5000);
    s.add("spansA.runtime", Kind::libSend, 100, 1, 100);
    s.add("spansA.engine.hostInterface", Kind::hifFetch, 300, 1, 100, 200);
    s.add("spansA.engine.fpc0", Kind::fpcUserSend, 320, 1, 0, 1100);
    s.add("spansA.engine.fpc0", Kind::fpuIssue, 350, 1, 1100, 5000);
    s.add("spansA.engine.fpc0", Kind::fpuPass, 400, 1);
    s.add("spansA.engine.packetGenerator", Kind::pktgenSegment, 400, 1,
          1000, 100);
    s.add("spansA.link", Kind::linkTx, 450, hash, 166, 1000);
    s.add("spansB.engine.rxParser", Kind::rxParse, 600, 2, 1000, 100);
    s.add("spansB.engine.rxParser", Kind::rxParse, 610, 2, 1000, 100);
    s.add("spansB.engine.fpc3", Kind::fpcRxSegment, 620, 2, 0, 1100);
    s.add("spansB.engine.fpc3", Kind::fpuIssue, 650, 2, 5000, 1100);
    s.add("spansB.engine.fpc3", Kind::fpuPass, 700, 2);
    s.add("spansB.engine", Kind::upcallPost, 700, 2, 100);
    s.add("spansB.engine.hostInterface", Kind::hifFlush, 800, 2, 100);
    s.add("spansB.runtime", Kind::libDeliver, 1000, 2, 100);
    Spans spans(s.records, scriptHosts);

    EXPECT_EQ(spans.duplicateArrivals(), 1u);
    ASSERT_EQ(spans.completed(), 1u);
    const Request &r = spans.requests().front();
    EXPECT_EQ(r.latency(), sim::Tick{900});
    EXPECT_EQ(r.sampledTotal(), r.latency());
    struct Want
    {
        Stage stage;
        sim::Tick begin, service, end;
    };
    const Want want[] = {
        {Stage::appQueue, 100, 100, 100}, {Stage::doorbell, 100, 100, 200},
        {Stage::pcie, 200, 200, 300},     {Stage::fpcQueue, 300, 300, 320},
        {Stage::fpcExec, 320, 350, 400},  {Stage::wire, 400, 450, 600},
        {Stage::rxParse, 600, 600, 600},  {Stage::fpcQueue, 600, 600, 620},
        {Stage::fpcExec, 620, 650, 700},  {Stage::upcall, 700, 800, 1000},
    };
    ASSERT_EQ(r.spans.size(), std::size(want));
    for (std::size_t i = 0; i < std::size(want); ++i) {
        const obs::Span &span = r.spans[i];
        EXPECT_EQ(span.stage, want[i].stage) << i;
        EXPECT_EQ(span.begin, want[i].begin) << obs::stageName(span.stage);
        EXPECT_EQ(span.begin + span.queueTime(), want[i].service)
            << obs::stageName(span.stage);
        EXPECT_EQ(span.end, want[i].end) << obs::stageName(span.stage);
    }
}

} // namespace
} // namespace f4t
