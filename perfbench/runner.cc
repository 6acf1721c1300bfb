/**
 * @file
 * Benchmark runner: one run of one workload per process.
 *
 * A run goes through five timed phases, each a call into the public
 * testbed and app APIs:
 *
 *  - build:     testbed constructors and app start();
 *  - establish: Simulation::runFor / ParallelExecutor::runFor until
 *               every connection is up, then a fixed warm-up;
 *  - window:    the measured window of fixed simulated length;
 *  - drain:     kv_star only: arrivals have stopped, run until every
 *               request completed so the StreamOracle ledger can be
 *               closed (0 on the other workloads);
 *  - teardown:  destruction of the world.
 *
 * Around the window the runner reads every module's public counters
 * and, when the self-profiler is compiled in (F4T_ENABLE_PROFILE), the
 * per-category self time and the executor's per-worker breakdown.
 * It prints one JSON object on stdout; perfbench/run.py repeats runs,
 * checks the simulated outputs and aggregates.
 *
 * Workloads (perfbench/NOTES.md says why each was chosen):
 *  - echo_mesh:   EnginePairWorld, 10240 closed-loop 128 B echo flows;
 *  - bulk_stream: EnginePairWorld, 4 bulk flows of 16 KiB send()s;
 *  - kv_star:     ParallelStarWorld, 8 open-loop KV clients, seeded.
 *
 * Usage: perfbench_runner --workload NAME [--seed N] [--threads N]
 * Exit codes: 0 run done (outputs printed), 2 bad command line,
 * 3 the workload did not reach a checkable state.
 */

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/kv.hh"
#include "apps/testbed.hh"
#include "apps/testbed_star.hh"
#include "apps/workloads.hh"
#include "load/generators.hh"
#include "load/open_loop.hh"
#include "net/stream_oracle.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/profile_scope.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace f4t::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A workload that cannot reach a checkable state (exit code 3). */
struct RunFailure
{
    std::string message;
};

/** FNV-1a over simulated quantities only. */
struct Fingerprint
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (value >> (i * 8)) & 0xff;
            state *= 1099511628211ULL;
        }
    }
};

/** A /proc/self/status field ("VmRSS", "VmHWM") in MB; 0 if absent. */
double
procStatusMb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    std::size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Every component whose public counters the runner reads. */
struct Topology
{
    std::vector<sim::Simulation *> sims;
    sim::ParallelExecutor *executor = nullptr;
    std::vector<core::FtEngine *> engines;
    std::vector<host::CpuComplex *> cpus;
    std::vector<net::LinkDirection *> cables;
    net::Switch *fabric = nullptr;
    std::vector<const load::OpenLoopClientApp *> loaders;
};

/**
 * Module counters at one instant, read between runFor() calls, keyed by
 * per-layer metric name (a few, like scheduler.coalesced, only feed
 * ratios). Values stay below 2^53, so a double holds every count
 * exactly.
 */
using Counters = std::map<std::string, double>;

/** Counters that are levels, not cumulative: the window keeps them. */
bool
isLevel(const std::string &name)
{
    return name == "sim.callback_pool_peak" ||
           name == "sim.squashed_entries" || name == "load.peak_backlog";
}

Counters
readCounters(const Topology &topo)
{
    // Every name is set on every workload; absent modules read 0.
    Counters c;
    sim::ParallelExecutor *executor = topo.executor;
    c["sim.events"] = executor ? executor->eventsProcessed() : 0;
    c["parallel.windows"] = executor ? executor->windowsRun() : 0;
    c["parallel.cross_events"] =
        executor ? executor->crossEventsDelivered() : 0;
    c["parallel.mailbox_spills"] = executor ? executor->mailboxSpills() : 0;
    for (sim::Simulation *sim : topo.sims) {
        if (executor == nullptr)
            c["sim.events"] += sim->queue().eventsProcessed();
        c["sim.callback_pool_peak"] += sim->queue().callbackPoolAllocated();
        c["sim.squashed_entries"] += sim->queue().squashedEntries();
    }
    for (core::FtEngine *engine : topo.engines) {
        core::Scheduler &scheduler = engine->scheduler();
        c["scheduler.events_routed"] += scheduler.eventsRouted();
        c["scheduler.coalesced"] += scheduler.eventsCoalesced();
        c["scheduler.migrations"] += scheduler.migrations();
        c["scheduler.rebalances"] += scheduler.rebalances();
        for (std::size_t i = 0; i < engine->fpcCount(); ++i) {
            core::Fpc &fpc = engine->fpc(i);
            c["fpc.events_handled"] += fpc.eventsHandled();
            c["fpc.fpu_passes"] += fpc.fpuPasses();
            c["fpc.evictions"] += fpc.evictions();
        }
        core::MemoryManager &memory = engine->memoryManager();
        c["memory.events"] += memory.eventsHandled();
        c["memory.cache_hits"] += memory.cacheHits();
        c["memory.cache_misses"] += memory.cacheMisses();
        c["memory.swap_ins"] += memory.swapInRequests();
        c["dram.requests"] += engine->dram().requestCount();
        c["dram.bytes"] += engine->dram().bytesTransferred();
        c["rx.packets_parsed"] += engine->rxParser().packetsParsed();
        c["rx.drops"] += engine->rxParser().packetsDropped();
        c["tx.segments"] += engine->packetGenerator().segmentsGenerated();
        c["tx.retransmits"] += engine->packetGenerator().retransmissions();
        c["host.commands"] += engine->hostInterface().commandsFetched();
        c["host.completions"] += engine->hostInterface().completionsPosted();
        c["pcie.h2d_bytes"] += engine->pcie().hostToDeviceBytes();
        c["pcie.d2h_bytes"] += engine->pcie().deviceToHostBytes();
    }
    for (host::CpuComplex *cpu : topo.cpus)
        c["cpu.busy_cycles"] += cpu->totalBusyCycles();
    for (net::LinkDirection *cable : topo.cables) {
        c["link.packets"] += cable->packetsSent();
        c["link.bytes"] += cable->bytesSent();
        c["link.fault_drops"] += cable->packetsDropped();
    }
    net::Switch *fabric = topo.fabric;
    c["switch.forwarded"] = fabric ? fabric->totalForwarded() : 0;
    c["switch.dropped"] = fabric ? fabric->totalDropped() : 0;
    c["switch.route_misses"] = fabric ? fabric->routeMisses() : 0;
    c["load.issued"] = c["load.completed"] = c["load.peak_backlog"] = 0;
    for (const load::OpenLoopClientApp *loader : topo.loaders) {
        c["load.issued"] += loader->issued();
        c["load.completed"] += loader->completed();
        c["load.peak_backlog"] =
            std::max<double>(c["load.peak_backlog"],
                             loader->peakBacklogDepth());
    }
    return c;
}

/** Window delta: cumulative counters differenced, levels kept. */
Counters
windowDelta(Counters after, const Counters &before)
{
    for (auto &[name, value] : after)
        if (!isLevel(name))
            value -= before.at(name);
    return after;
}

/** Simulated outputs of one run: printed, and folded into the
 *  fingerprint in the order they were added. */
struct Outputs
{
    /** (name, JSON number) in the order added. */
    std::vector<std::pair<std::string, std::string>> values;
    Fingerprint fingerprint;
    bool ledgerChecked = false;
    bool ledgerOk = true;
    std::string ledgerReport;

    void
    add(const std::string &name, std::uint64_t value)
    {
        values.emplace_back(name, std::to_string(value));
        fingerprint.mix(value);
    }

    /** Simulated microseconds, folded in at picosecond resolution. */
    void
    addUs(const std::string &name, double us)
    {
        char text[32];
        std::snprintf(text, sizeof(text), "%.6f", us);
        values.emplace_back(name, text);
        fingerprint.mix(static_cast<std::uint64_t>(std::llround(us * 1e6)));
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run until every connection is up, then the warm-up. */
    virtual void establish() = 0;
    /** The measured window (fixed simulated length). */
    virtual void runWindow() = 0;
    /** After the window: settle if needed and collect outputs. */
    virtual Outputs finish() = 0;

    virtual sim::Tick windowTicks() const = 0;

    const Topology &topology() const { return topo_; }

  protected:
    Topology topo_;
};

/** Sum of the counter @p fn over every app in @p apps. */
template <typename Apps, typename Fn>
std::uint64_t
sumOver(const Apps &apps, Fn fn)
{
    std::uint64_t total = 0;
    for (const auto &app : apps)
        total += std::invoke(fn, *app);
    return total;
}

/** Topology of a serial two-engine pair. */
void
pairTopology(Topology &topo, testbed::EnginePairWorld &world)
{
    topo.sims = {&world.sim};
    topo.engines = {world.engineA.get(), world.engineB.get()};
    topo.cpus = {world.cpuA.get(), world.cpuB.get()};
    topo.cables = {&world.link->aToB(), &world.link->bToA()};
}

/** Advance @p kernel (a Simulation or a parallel world) in @p step
 *  slices until @p done; fail once it reaches tick @p limit. */
template <typename Kernel, typename Done>
void
runUntil(Kernel &kernel, Done done, sim::Tick step, sim::Tick limit,
         const char *what)
{
    while (!done()) {
        if (kernel.now() >= limit)
            throw RunFailure{what};
        kernel.runFor(step);
    }
}

// ---------------------------------------------------------------------------
// echo_mesh: 10240 closed-loop 128 B echo flows, 10:1 over FPC slots.

class EchoMesh : public Workload
{
  public:
    static constexpr std::size_t threadsPerSide = 8;
    static constexpr std::size_t flows = 10240;

    EchoMesh()
        : world_(2 * threadsPerSide, engineConfig()),
          latency_(world_.sim.stats(), "perfbench.rtt_us",
                   "echo round-trip time (us)")
    {
        pairTopology(topo_, world_);
        // Servers on queues 0..7 of both hosts, clients on 8..15: one
        // host queue pair per application thread.
        for (std::size_t i = 0; i < threadsPerSide; ++i) {
            for (int side = 0; side < 2; ++side) {
                apis_.push_back(makeApi(side, i));
                servers_.push_back(std::make_unique<apps::EchoServerApp>(
                    *apis_.back(), apps::EchoServerConfig{}));
                servers_.back()->start();
            }
        }
        std::size_t num_clients = 2 * threadsPerSide;
        for (std::size_t i = 0; i < threadsPerSide; ++i) {
            for (int side = 0; side < 2; ++side) {
                apis_.push_back(makeApi(side, threadsPerSide + i));
                apps::EchoClientConfig config;
                config.peer = side == 0 ? testbed::ipB() : testbed::ipA();
                config.flows = flows / num_clients;
                config.connectSpacing = sim::nanosecondsToTicks(100);
                clients_.push_back(std::make_unique<apps::EchoClientApp>(
                    *apis_.back(), &latency_, config));
            }
        }
    }

    void
    establish() override
    {
        // Listens reach the engines before the first SYN does.
        world_.sim.runFor(sim::microsecondsToTicks(20));
        for (auto &client : clients_)
            client->start();
        runUntil(
            world_.sim, [this] { return connected() == flows; },
            sim::microsecondsToTicks(50), sim::millisecondsToTicks(100),
            "echo_mesh: flows still unconnected at 100 ms simulated");
        establishedAt_ = world_.sim.now();
        world_.sim.runFor(sim::microsecondsToTicks(200));
    }

    void
    runWindow() override
    {
        latency_.reset();
        tripsBefore_ = roundTrips();
        world_.sim.runFor(windowTicks());
    }

    Outputs
    finish() override
    {
        Outputs out;
        out.add("connected_flows", connected());
        out.addUs("established_at_us",
                  sim::ticksToSeconds(establishedAt_) * 1e6);
        out.add("round_trips", roundTrips() - tripsBefore_);
        out.addUs("rtt_p50_us", latency_.percentile(50));
        out.addUs("rtt_p99_us", latency_.percentile(99));
        out.add("link_bytes_a_to_b", world_.link->aToB().bytesSent());
        out.add("link_bytes_b_to_a", world_.link->bToA().bytesSent());
        out.add("end_tick", world_.sim.now());
        return out;
    }

    sim::Tick
    windowTicks() const override
    {
        return sim::millisecondsToTicks(4);
    }

  private:
    static core::EngineConfig
    engineConfig()
    {
        core::EngineConfig config;
        config.numFpcs = 8;
        config.flowsPerFpc = 128;
        config.maxFlows = 32768;
        config.tcpBufferBytes = 8 * 1024;
        return config;
    }

    std::unique_ptr<apps::F4tSocketApi>
    makeApi(int side, std::size_t queue)
    {
        return std::make_unique<apps::F4tSocketApi>(
            world_.sim, side == 0 ? *world_.runtimeA : *world_.runtimeB,
            queue,
            side == 0 ? world_.cpuA->core(queue) : world_.cpuB->core(queue));
    }

    std::size_t
    connected() const
    {
        return sumOver(clients_, &apps::EchoClientApp::connectedFlows);
    }

    std::uint64_t
    roundTrips() const
    {
        return sumOver(clients_, &apps::EchoClientApp::roundTrips);
    }

    testbed::EnginePairWorld world_;
    sim::Histogram latency_;
    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis_;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers_;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients_;
    sim::Tick establishedAt_ = 0;
    std::uint64_t tripsBefore_ = 0;
};

// ---------------------------------------------------------------------------
// bulk_stream: 4 bulk flows of 16 KiB send() requests at ~94 Gb/s.

class BulkStream : public Workload
{
  public:
    static constexpr std::size_t flows = 4;
    static constexpr std::size_t requestBytes = 16 * 1024;

    BulkStream() : world_(flows, engineConfig())
    {
        pairTopology(topo_, world_);
        for (std::size_t i = 0; i < flows; ++i) {
            apis_.push_back(std::make_unique<apps::F4tSocketApi>(
                world_.sim, *world_.runtimeB, i, world_.cpuB->core(i)));
            sinks_.push_back(std::make_unique<apps::BulkSinkApp>(
                *apis_.back(), apps::BulkSinkConfig{}));
            sinks_.back()->start();

            apis_.push_back(std::make_unique<apps::F4tSocketApi>(
                world_.sim, *world_.runtimeA, i, world_.cpuA->core(i)));
            apps::BulkSenderConfig config;
            config.peer = testbed::ipB();
            config.requestBytes = requestBytes;
            senders_.push_back(std::make_unique<apps::BulkSenderApp>(
                *apis_.back(), config));
            senders_.back()->start();
        }
    }

    void
    establish() override
    {
        runUntil(
            world_.sim,
            [this] {
                return std::all_of(senders_.begin(), senders_.end(),
                                   [](const auto &s) {
                                       return s->connected();
                                   });
            },
            sim::microsecondsToTicks(10), sim::millisecondsToTicks(10),
            "bulk_stream: flows still unconnected at 10 ms simulated");
        establishedAt_ = world_.sim.now();
        world_.sim.runFor(sim::microsecondsToTicks(200));
    }

    void
    runWindow() override
    {
        bytesBefore_ = received();
        sentBefore_ = sent();
        world_.sim.runFor(windowTicks());
    }

    Outputs
    finish() override
    {
        Outputs out;
        std::uint64_t bytes = received() - bytesBefore_;
        out.addUs("established_at_us",
                  sim::ticksToSeconds(establishedAt_) * 1e6);
        out.add("goodput_bytes", bytes);
        out.add("goodput_mbps",
                static_cast<std::uint64_t>(
                    bytes * 8.0 / sim::ticksToSeconds(windowTicks()) / 1e6));
        out.add("bytes_sent", sent() - sentBefore_);
        out.add("link_packets_a_to_b", world_.link->aToB().packetsSent());
        out.add("link_packets_b_to_a", world_.link->bToA().packetsSent());
        out.add("end_tick", world_.sim.now());
        return out;
    }

    sim::Tick
    windowTicks() const override
    {
        return sim::millisecondsToTicks(20);
    }

  private:
    static core::EngineConfig
    engineConfig()
    {
        core::EngineConfig config;
        config.numFpcs = 8;
        config.flowsPerFpc = 128;
        config.maxFlows = 4096;
        return config;
    }

    std::uint64_t
    received() const
    {
        return sumOver(sinks_, &apps::BulkSinkApp::bytesReceived);
    }

    std::uint64_t
    sent() const
    {
        return sumOver(senders_, &apps::BulkSenderApp::bytesSent);
    }

    testbed::EnginePairWorld world_;
    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis_;
    std::vector<std::unique_ptr<apps::BulkSinkApp>> sinks_;
    std::vector<std::unique_ptr<apps::BulkSenderApp>> senders_;
    sim::Tick establishedAt_ = 0;
    std::uint64_t bytesBefore_ = 0;
    std::uint64_t sentBefore_ = 0;
};

// ---------------------------------------------------------------------------
// kv_star: 8 open-loop KV clients x 4 connections through net::Switch,
// clients + switch and the server in two executor partitions.

class KvStar : public Workload
{
  public:
    static constexpr std::size_t clients = 8;
    static constexpr std::size_t connections = 4;
    static constexpr double ratePerClient = 100'000.0;

    KvStar(std::uint64_t seed, std::size_t threads)
        : world_(starConfig(seed), threads),
          latency_(world_.simClients.stats(), "perfbench.latency_us",
                   "open-loop request latency from arrival (us)")
    {
        topo_.sims = {&world_.simClients, &world_.simServer};
        topo_.executor = &world_.executor;
        topo_.fabric = world_.fabric.get();
        for (std::size_t i = 0; i < clients; ++i) {
            topo_.engines.push_back(world_.clientEngines[i].get());
            topo_.cpus.push_back(world_.clientCpus[i].get());
            topo_.cables.push_back(&world_.clientLinks[i]->aToB());
            topo_.cables.push_back(&world_.clientLinks[i]->bToA());
        }
        topo_.engines.push_back(world_.serverEngine.get());
        topo_.cpus.push_back(world_.serverCpu.get());
        topo_.cables.push_back(&world_.serverLink->aToB());
        topo_.cables.push_back(&world_.serverLink->bToA());

        serverApi_ = std::make_unique<apps::F4tSocketApi>(
            world_.simServer, *world_.serverRuntime, 0,
            world_.serverCpu->core(0));
        apps::KvServerConfig server_config;
        server_config.oracle = &oracle_;
        server_ = std::make_unique<apps::KvServerApp>(*serverApi_,
                                                      server_config);
        server_->start();

        // Arrivals start inside warm-up and stop at the end of the
        // window (maxRequests), so the drain can close the ledger.
        double arrival_seconds =
            sim::ticksToSeconds(windowEnd() - arrivalsStart());
        for (std::size_t i = 0; i < clients; ++i) {
            apis_.push_back(world_.makeClientApi(i));
            load::OpenLoopConfig config;
            config.peer = testbed::starServerIp();
            config.connections = connections;
            config.streamBase = static_cast<std::uint32_t>(i) * 64;
            config.clientId = static_cast<std::uint32_t>(i);
            config.seed = load::substreamSeed(seed, 0xC11E47);
            config.arrivals = load::ArrivalSpec::poisson(ratePerClient);
            config.valueSizes =
                load::SizeSpec::logNormalSize(1024.0, 0.8, 64, 32768);
            config.readFraction = 0.9;
            config.maxRequests = static_cast<std::uint64_t>(
                std::llround(ratePerClient * arrival_seconds));
            config.startAt = arrivalsStart();
            config.oracle = &oracle_;
            config.latencyUs = &latency_;
            loaders_.push_back(std::make_unique<load::OpenLoopClientApp>(
                *apis_.back(), config));
            loaders_.back()->start();
            topo_.loaders.push_back(loaders_.back().get());
        }
    }

    void
    establish() override
    {
        runUntil(
            world_,
            [this] {
                return world_.serverEngine->flowsActive() ==
                       clients * connections;
            },
            sim::microsecondsToTicks(10), sim::millisecondsToTicks(5),
            "kv_star: connections still down at 5 ms simulated");
        establishedAt_ = world_.now();
        if (world_.now() < warmupEnd())
            world_.run(warmupEnd());
    }

    void
    runWindow() override
    {
        latency_.reset();
        issuedBefore_ = issued();
        completedBefore_ = completed();
        valueBytesBefore_ = valueBytes();
        world_.runFor(windowTicks());
    }

    Outputs
    finish() override
    {
        Outputs out;
        std::uint64_t window_issued = issued() - issuedBefore_;
        std::uint64_t window_completed = completed() - completedBefore_;
        std::uint64_t window_bytes = valueBytes() - valueBytesBefore_;
        double p50 = latency_.percentile(50);
        double p99 = latency_.percentile(99);
        double p999 = latency_.percentile(99.9);

        // Drain: arrivals stop about at the window end (maxRequests);
        // run until every issued request has completed. A loss late in
        // the window rides the 5 ms RTO floor.
        const sim::Tick deadline = windowEnd() + sim::millisecondsToTicks(200);
        while (completed() < issued() && world_.now() < deadline)
            world_.runFor(sim::millisecondsToTicks(1));

        out.addUs("established_at_us",
                  sim::ticksToSeconds(establishedAt_) * 1e6);
        out.add("requests_issued", window_issued);
        out.add("requests_completed", window_completed);
        out.add("value_bytes", window_bytes);
        out.addUs("latency_p50_us", p50);
        out.addUs("latency_p99_us", p99);
        out.addUs("latency_p999_us", p999);
        out.add("total_issued", issued());
        out.add("total_completed", completed());
        out.add("server_gets", server_->gets());
        out.add("server_sets", server_->sets());
        out.add("switch_forwarded", world_.fabric->totalForwarded());
        out.add("switch_dropped", world_.fabric->totalDropped());
        out.add("drain_end_tick", world_.now());

        for (std::size_t i = 0; i < clients; ++i) {
            for (std::size_t slot = 0; slot < connections; ++slot) {
                auto key = static_cast<std::uint32_t>(i * 64 + slot);
                oracle_.expectFullyDelivered(apps::kvSetStream(key));
                oracle_.expectFullyDelivered(apps::kvGetStream(key));
            }
        }
        out.add("ledger_sent_bytes", oracle_.totalSentBytes());
        out.add("ledger_delivered_bytes", oracle_.totalDeliveredBytes());
        out.add("ledger_digest", oracle_.ledgerDigest());
        out.ledgerChecked = true;
        out.ledgerOk = completed() == issued() && oracle_.passed() &&
                       oracle_.totalSentBytes() ==
                           oracle_.totalDeliveredBytes() &&
                       server_->protocolErrors() == 0;
        if (!out.ledgerOk)
            out.ledgerReport = oracle_.report();
        return out;
    }

    sim::Tick windowTicks() const override { return windowLength(); }

  private:
    static testbed::StarConfig
    starConfig(std::uint64_t seed)
    {
        testbed::StarConfig star;
        star.clients = clients;
        star.engine.numFpcs = 4;
        star.engine.flowsPerFpc = 64;
        star.engine.maxFlows = 4096;
        star.engine.tcpBufferBytes = 32 * 1024;
        star.fabric.sharedEgressBytes = 256 * 1024;
        star.serverLinkFaults.dropAtTicks = dropSchedule(seed, 0xD809);
        star.serverLinkReverseFaults = net::FaultModel{};
        star.serverLinkReverseFaults->dropAtTicks =
            dropSchedule(seed, 0xD80A);
        return star;
    }

    /**
     * Seeded drop instants for one direction of the server cable:
     * Poisson at about 0.1% of the ~1.8 Mpkt/s that direction carries,
     * inside the window only, so establishment never waits on a SYN
     * retransmission.
     */
    static std::vector<sim::Tick>
    dropSchedule(std::uint64_t seed, std::uint64_t stream)
    {
        load::ArrivalProcess drops(load::ArrivalSpec::poisson(1800.0),
                                   load::substreamSeed(seed, stream));
        std::vector<sim::Tick> ticks;
        for (sim::Tick t = warmupEnd() + drops.nextGap(); t < windowEnd();
             t += drops.nextGap())
            ticks.push_back(t);
        return ticks;
    }

    static sim::Tick arrivalsStart() { return sim::microsecondsToTicks(150); }
    static sim::Tick warmupEnd() { return sim::microsecondsToTicks(300); }
    static sim::Tick windowLength() { return sim::millisecondsToTicks(60); }
    static sim::Tick windowEnd() { return warmupEnd() + windowLength(); }

    std::uint64_t
    issued() const
    {
        return sumOver(loaders_, &load::OpenLoopClientApp::issued);
    }

    std::uint64_t
    completed() const
    {
        return sumOver(loaders_, &load::OpenLoopClientApp::completed);
    }

    std::uint64_t
    valueBytes() const
    {
        return sumOver(loaders_, &load::OpenLoopClientApp::valueBytesReceived) +
               sumOver(loaders_, &load::OpenLoopClientApp::valueBytesSent);
    }

    net::StreamOracle oracle_;
    testbed::ParallelStarWorld world_;
    sim::Histogram latency_;
    std::unique_ptr<apps::F4tSocketApi> serverApi_;
    std::unique_ptr<apps::KvServerApp> server_;
    std::vector<std::unique_ptr<apps::F4tSocketApi>> apis_;
    std::vector<std::unique_ptr<load::OpenLoopClientApp>> loaders_;
    sim::Tick establishedAt_ = 0;
    std::uint64_t issuedBefore_ = 0;
    std::uint64_t completedBefore_ = 0;
    std::uint64_t valueBytesBefore_ = 0;
};

// ---------------------------------------------------------------------------
// Command line and report.

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    std::size_t threads = 1;
    bool threadsGiven = false;
};

[[noreturn]] void
usage(const char *argv0, const std::string &error)
{
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s --workload echo_mesh|bulk_stream|kv_star "
                 "[--seed N] [--threads N]\n"
                 "  --seed N     0..2^64-1 (kv_star arrivals, sizes, "
                 "mix, drops)\n"
                 "  --threads N  kv_star executor workers, 1..nproc "
                 "(default 1)\n",
                 argv0, error.c_str(), argv0);
    std::exit(2);
}

/** Strict decimal: digits only, no sign or space, no overflow. */
bool
parseUnsigned(const char *text, std::uint64_t max, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0' || std::strlen(text) > 20)
        return false;
    for (const char *p = text; *p != '\0'; ++p)
        if (*p < '0' || *p > '9')
            return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || value > max)
        return false;
    out = value;
    return true;
}

std::size_t
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return 1;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool seed_given = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--help" || flag == "-h")
            usage(argv[0], "help requested");
        if (i + 1 >= argc)
            usage(argv[0], "missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            if (!args.workload.empty())
                usage(argv[0], "--workload given twice");
            args.workload = value;
            if (args.workload != "echo_mesh" &&
                args.workload != "bulk_stream" && args.workload != "kv_star")
                usage(argv[0], "unknown workload '" + args.workload + "'");
        } else if (flag == "--seed") {
            if (seed_given)
                usage(argv[0], "--seed given twice");
            seed_given = true;
            if (!parseUnsigned(value, UINT64_MAX, args.seed))
                usage(argv[0], "bad --seed '" + std::string(value) + "'");
        } else if (flag == "--threads") {
            if (args.threadsGiven)
                usage(argv[0], "--threads given twice");
            args.threadsGiven = true;
            std::uint64_t threads = 0;
            if (!parseUnsigned(value, 1024, threads) || threads == 0)
                usage(argv[0], "bad --threads '" + std::string(value) + "'");
            if (threads > onlineCpus())
                usage(argv[0], "--threads " + std::to_string(threads) +
                                   " exceeds nproc (" +
                                   std::to_string(onlineCpus()) + ")");
            args.threads = threads;
        } else {
            usage(argv[0], "unknown flag '" + flag + "'");
        }
    }
    if (args.workload.empty())
        usage(argv[0], "--workload is required");
    if (args.threadsGiven && args.workload != "kv_star")
        usage(argv[0], "--threads applies to kv_star only");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "echo_mesh")
        return std::make_unique<EchoMesh>();
    if (args.workload == "bulk_stream")
        return std::make_unique<BulkStream>();
    return std::make_unique<KvStar>(args.seed, args.threads);
}

void
printCounters(const Counters &counts)
{
    std::printf("\"counts\": {");
    const char *sep = "";
    for (const auto &[name, value] : counts) {
        std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
        sep = ", ";
    }
    std::printf("}");
}

int
run(const Args &args)
{
    sim::setVerbose(false);
    sim::prof::setEnabled(sim::prof::compiledIn);

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> workload = makeWorkload(args);
    double build_s = secondsSince(t0);

    Clock::time_point t1 = Clock::now();
    workload->establish();
    double establish_s = secondsSince(t1);

    const Topology &topo = workload->topology();
    std::size_t workers =
        topo.executor != nullptr ? topo.executor->effectiveThreads() : 1;
    Counters before = readCounters(topo);
    std::vector<sim::WorkerProfile> workers_before;
    if (topo.executor != nullptr)
        workers_before = topo.executor->workerProfiles();
    double rss_start = procStatusMb("VmRSS");
    sim::prof::Snapshot prof_before = sim::prof::capture();

    Clock::time_point t2 = Clock::now();
    workload->runWindow();
    double window_s = secondsSince(t2);

    sim::prof::Snapshot prof = sim::prof::since(prof_before);
    double rss_end = procStatusMb("VmRSS");
    Counters counts = windowDelta(readCounters(topo), before);
    sim::WorkerProfile worker_sum;
    if (topo.executor != nullptr) {
        std::vector<sim::WorkerProfile> after =
            topo.executor->workerProfiles();
        // Workers start on the first run(), inside establish(), so both
        // snapshots cover the same threads.
        for (std::size_t i = 0; i < after.size(); ++i) {
            const sim::WorkerProfile &b = workers_before.at(i);
            worker_sum.busyNs += after[i].busyNs - b.busyNs;
            worker_sum.idleNs += after[i].idleNs - b.idleNs;
            worker_sum.barrierNs += after[i].barrierNs - b.barrierNs;
        }
    }
    double sim_window_us = sim::ticksToSeconds(workload->windowTicks()) * 1e6;

    Clock::time_point t3 = Clock::now();
    Outputs outputs = workload->finish();
    double drain_s = secondsSince(t3);

    Clock::time_point t4 = Clock::now();
    workload.reset();
    double teardown_s = secondsSince(t4);
    double run_s = secondsSince(t0);
    double peak_rss = procStatusMb("VmHWM");

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"workers\": %zu, "
                "\"profiled\": %s, ",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), workers,
                sim::prof::compiledIn ? "true" : "false");
    std::printf("\"phase\": {\"build_s\": %.9f, \"establish_s\": %.9f, "
                "\"window_s\": %.9f, \"drain_s\": %.9f, "
                "\"teardown_s\": %.9f}, ",
                build_s, establish_s, window_s, drain_s, teardown_s);
    std::printf("\"run_s\": %.9f, \"sim_window_us\": %.17g, ", run_s,
                sim_window_us);
    std::printf("\"mem\": {\"rss_window_start_mb\": %.6f, "
                "\"rss_window_end_mb\": %.6f, \"peak_rss_mb\": %.6f}, ",
                rss_start, rss_end, peak_rss);
    printCounters(counts);
    std::printf(", \"outputs\": {");
    for (std::size_t i = 0; i < outputs.values.size(); ++i)
        std::printf("%s\"%s\": %s", i ? ", " : "",
                    outputs.values[i].first.c_str(),
                    outputs.values[i].second.c_str());
    std::printf("}, \"fingerprint\": \"%016llx\", ",
                static_cast<unsigned long long>(outputs.fingerprint.state));
    std::printf("\"ledger\": \"%s\", ",
                !outputs.ledgerChecked ? "none"
                : outputs.ledgerOk     ? "ok"
                                       : "failed");
    std::printf("\"prof\": {");
    if (sim::prof::compiledIn) {
        for (std::size_t c = 0; c < sim::prof::categoryCount; ++c)
            std::printf("%s\"%s\": [%llu, %llu]", c ? ", " : "",
                        sim::prof::toString(static_cast<sim::prof::Cat>(c)),
                        static_cast<unsigned long long>(prof.ns[c]),
                        static_cast<unsigned long long>(prof.count[c]));
    }
    std::printf("}, \"worker_ns\": {\"busy\": %llu, \"idle\": %llu, "
                "\"barrier\": %llu}}\n",
                static_cast<unsigned long long>(worker_sum.busyNs),
                static_cast<unsigned long long>(worker_sum.idleNs),
                static_cast<unsigned long long>(worker_sum.barrierNs));
    if (!outputs.ledgerOk)
        std::fprintf(stderr, "perfbench_runner: ledger check failed\n%s\n",
                     outputs.ledgerReport.c_str());
    return 0;
}

} // namespace
} // namespace f4t::perfbench

int
main(int argc, char **argv)
{
    using namespace f4t::perfbench;
    Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const RunFailure &failure) {
        std::fprintf(stderr, "perfbench_runner: %s\n",
                     failure.message.c_str());
        return 3;
    }
}
