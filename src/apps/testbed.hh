/**
 * @file
 * Shared test fixtures: prebuilt two-node worlds.
 *
 *  - EnginePairWorld: two hosts, each with an FtEngine, directly
 *    cabled (the paper's FtEngine-to-FtEngine setup). Its Placement
 *    puts everything in one Simulation (the serial oracle) or each
 *    endpoint in its own executor partition;
 *  - EngineLinuxWorld: an FtEngine host cabled to a Linux host (the
 *    NIC-to-FtEngine setup) — also the interop check that the engine
 *    speaks actual TCP;
 *  - LinuxPairWorld: two Linux hosts (the NIC-to-NIC baseline).
 *
 * The star worlds live in testbed_star.hh.
 */

#ifndef F4T_APPS_TESTBED_HH
#define F4T_APPS_TESTBED_HH

#include <memory>
#include <optional>
#include <vector>

#include "apps/f4t_socket_api.hh"
#include "apps/linux_socket_api.hh"
#include "baseline/linux_host.hh"
#include "core/engine.hh"
#include "f4t/runtime.hh"
#include "host/cpu.hh"
#include "net/link.hh"
#include "obs/spans.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"

namespace f4t::testbed
{

/**
 * Where a world's parts live. Unpartitioned, everything shares one
 * Simulation and advances on its global queue: the determinism oracle.
 * Partitioned, each side is its own Simulation, the cable between the
 * sides crosses partitions with its propagation delay as lookahead,
 * and a ParallelExecutor advances them window by window.
 */
struct Placement
{
    bool partitioned = false;
};

/**
 * The kernel under a two-sided world: side A's Simulation, side B's
 * (its own partition, or side A's), and how the world advances. A
 * world builds side A's parts in @c sim and side B's in @c sideB_,
 * then calls partition() with the one cable between the sides.
 */
struct WorldKernel
{
    explicit WorldKernel(Placement placement)
        : placement(placement),
          partitionB_(placement.partitioned
                          ? std::make_unique<sim::Simulation>()
                          : nullptr),
          sideB_(partitionB_ ? *partitionB_ : sim)
    {}

    /** Advance the world to @p limit (see Simulation::run and
     *  ParallelExecutor::run; both pin now() to the limit). */
    sim::Tick
    run(sim::Tick limit)
    {
        return placement.partitioned ? executor.run(limit) : sim.run(limit);
    }

    sim::Tick
    runFor(sim::Tick duration)
    {
        return placement.partitioned ? executor.runFor(duration)
                                     : sim.runFor(duration);
    }

    /** Partitioned: the last window barrier, which both sides reached. */
    sim::Tick
    now() const
    {
        return placement.partitioned ? executor.now() : sim.now();
    }

    const Placement placement;
    /** Side A's partition; the whole world when unpartitioned. */
    sim::Simulation sim;

  protected:
    /** Hand the sides to the executor, with @p cable's crossings, when
     *  partitioned. */
    void
    partition(const char *name_a, const char *name_b, net::Link &cable)
    {
        if (!placement.partitioned)
            return;
        executor.addPartition(sim, name_a);
        executor.addPartition(sideB_, name_b);
        cable.registerChannels(executor);
        executor.registerStats(sim.stats());
    }

    /** Side B's own partition, when partitioned. */
    std::unique_ptr<sim::Simulation> partitionB_;
    /** Side B's Simulation: *partitionB_, or sim. */
    sim::Simulation &sideB_;

  public:
    /** Advances the partitions; holds none when unpartitioned. */
    sim::ParallelExecutor executor;
};

inline net::Ipv4Address
ipA()
{
    return net::Ipv4Address::fromOctets(10, 0, 0, 1);
}

inline net::Ipv4Address
ipB()
{
    return net::Ipv4Address::fromOctets(10, 0, 0, 2);
}

inline net::MacAddress
macA()
{
    return net::MacAddress{{0x02, 0xf4, 0, 0, 0, 0x01}};
}

inline net::MacAddress
macB()
{
    return net::MacAddress{{0x02, 0xf4, 0, 0, 0, 0x02}};
}

/** Two FtEngines cabled together, one host (CPU+runtime) each. */
struct EnginePairWorld : WorldKernel
{
    explicit EnginePairWorld(
        std::size_t cores_per_host = 1, core::EngineConfig base = {},
        const net::FaultModel &faults = {}, double bandwidth_bps = 100e9,
        const std::optional<net::FaultModel> &reverse_faults = {},
        sim::Tick propagation_delay = sim::nanosecondsToTicks(500),
        Placement placement = {})
        : WorldKernel(placement)
    {
        core::EngineConfig config_a = base;
        config_a.ip = ipA();
        config_a.mac = macA();
        core::EngineConfig config_b = base;
        config_b.ip = ipB();
        config_b.mac = macB();

        engineA = std::make_unique<core::FtEngine>(sim, "engineA",
                                                   config_a);
        engineB = std::make_unique<core::FtEngine>(simB, "engineB",
                                                   config_b);
        link = std::make_unique<net::Link>(sim, simB, "link", bandwidth_bps,
                                           propagation_delay, faults,
                                           reverse_faults);
        link->connect(*engineA, *engineB);
        engineA->setTransmit(
            [this](net::Packet &&pkt) { link->aToB().send(std::move(pkt)); });
        engineB->setTransmit(
            [this](net::Packet &&pkt) { link->bToA().send(std::move(pkt)); });
        engineA->addArpEntry(ipB(), macB());
        engineB->addArpEntry(ipA(), macA());

        cpuA = std::make_unique<host::CpuComplex>(sim, "cpuA",
                                                  cores_per_host);
        cpuB = std::make_unique<host::CpuComplex>(simB, "cpuB",
                                                  cores_per_host);
        runtimeA = std::make_unique<lib::F4tRuntime>(sim, "runtimeA",
                                                     *engineA,
                                                     cores_per_host);
        runtimeB = std::make_unique<lib::F4tRuntime>(simB, "runtimeB",
                                                     *engineB,
                                                     cores_per_host);
        partition("endpointA", "endpointB", *link);
    }

    apps::F4tSocketApi
    apiA(std::size_t thread)
    {
        return apps::F4tSocketApi(sim, *runtimeA, thread,
                                  cpuA->core(thread));
    }

    apps::F4tSocketApi
    apiB(std::size_t thread)
    {
        return apps::F4tSocketApi(simB, *runtimeB, thread,
                                  cpuB->core(thread));
    }

    /** Both hosts, named for the span builder (obs/spans.hh). */
    std::vector<obs::SpanHost>
    spanHosts() const
    {
        return {{engineA->name(), runtimeA->name(), link->aToB().name()},
                {engineB->name(), runtimeB->name(), link->bToA().name()}};
    }

    /** Endpoint B's partition, or sim. */
    sim::Simulation &simB = sideB_;
    std::unique_ptr<core::FtEngine> engineA;
    std::unique_ptr<core::FtEngine> engineB;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<host::CpuComplex> cpuA;
    std::unique_ptr<host::CpuComplex> cpuB;
    std::unique_ptr<lib::F4tRuntime> runtimeA;
    std::unique_ptr<lib::F4tRuntime> runtimeB;
};

/** An FtEngine host (A) cabled to a Linux host (B). */
struct EngineLinuxWorld
{
    explicit EngineLinuxWorld(
        std::size_t engine_cores = 1, std::size_t linux_cores = 1,
        core::EngineConfig base = {},
        baseline::LinuxHostConfig linux_base = {},
        const net::FaultModel &faults = {}, double bandwidth_bps = 100e9,
        const std::optional<net::FaultModel> &reverse_faults = {})
    {
        core::EngineConfig config_a = base;
        config_a.ip = ipA();
        config_a.mac = macA();
        engine = std::make_unique<core::FtEngine>(sim, "engine", config_a);

        linux_base.ip = ipB();
        linux_base.mac = macB();
        linux_base.cores = linux_cores;
        linux = std::make_unique<baseline::LinuxHost>(sim, "linux",
                                                      linux_base);

        link = std::make_unique<net::Link>(sim, "link", bandwidth_bps,
                                           sim::nanosecondsToTicks(500),
                                           faults, reverse_faults);
        link->connect(*engine, *linux);
        engine->setTransmit(
            [this](net::Packet &&pkt) { link->aToB().send(std::move(pkt)); });
        linux->setTransmit(
            [this](net::Packet &&pkt) { link->bToA().send(std::move(pkt)); });
        engine->addArpEntry(ipB(), macB());
        linux->addArpEntry(ipA(), macA());

        cpu = std::make_unique<host::CpuComplex>(sim, "cpuA",
                                                 engine_cores);
        runtime = std::make_unique<lib::F4tRuntime>(sim, "runtime",
                                                    *engine, engine_cores);
    }

    apps::F4tSocketApi
    engineApi(std::size_t thread)
    {
        return apps::F4tSocketApi(sim, *runtime, thread,
                                  cpu->core(thread));
    }

    apps::LinuxSocketApi
    linuxApi(std::size_t core, double penalty = 0.0)
    {
        return apps::LinuxSocketApi(sim, *linux, core, penalty);
    }

    sim::Simulation sim;
    std::unique_ptr<core::FtEngine> engine;
    std::unique_ptr<baseline::LinuxHost> linux;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<host::CpuComplex> cpu;
    std::unique_ptr<lib::F4tRuntime> runtime;
};

/** Two Linux hosts cabled together (the software baseline). */
struct LinuxPairWorld
{
    explicit LinuxPairWorld(
        std::size_t cores = 1, baseline::LinuxHostConfig base = {},
        const net::FaultModel &faults = {}, double bandwidth_bps = 100e9,
        const std::optional<net::FaultModel> &reverse_faults = {},
        sim::Tick propagation_delay = sim::nanosecondsToTicks(500))
    {
        baseline::LinuxHostConfig config_a = base;
        config_a.ip = ipA();
        config_a.mac = macA();
        config_a.cores = cores;
        baseline::LinuxHostConfig config_b = base;
        config_b.ip = ipB();
        config_b.mac = macB();
        config_b.cores = cores;

        hostA = std::make_unique<baseline::LinuxHost>(sim, "hostA",
                                                      config_a);
        hostB = std::make_unique<baseline::LinuxHost>(sim, "hostB",
                                                      config_b);
        link = std::make_unique<net::Link>(sim, "link", bandwidth_bps,
                                           propagation_delay, faults,
                                           reverse_faults);
        link->connect(*hostA, *hostB);
        hostA->setTransmit(
            [this](net::Packet &&pkt) { link->aToB().send(std::move(pkt)); });
        hostB->setTransmit(
            [this](net::Packet &&pkt) { link->bToA().send(std::move(pkt)); });
        hostA->addArpEntry(ipB(), macB());
        hostB->addArpEntry(ipA(), macA());
    }

    apps::LinuxSocketApi
    apiA(std::size_t core, double penalty = 0.0)
    {
        return apps::LinuxSocketApi(sim, *hostA, core, penalty);
    }

    apps::LinuxSocketApi
    apiB(std::size_t core, double penalty = 0.0)
    {
        return apps::LinuxSocketApi(sim, *hostB, core, penalty);
    }

    sim::Simulation sim;
    std::unique_ptr<baseline::LinuxHost> hostA;
    std::unique_ptr<baseline::LinuxHost> hostB;
    std::unique_ptr<net::Link> link;
};

} // namespace f4t::testbed

#endif // F4T_APPS_TESTBED_HH
