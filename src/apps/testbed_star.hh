/**
 * @file
 * Star (fan-in) topology world: N client hosts and one server host,
 * every cable plugged into a net::Switch with a shared finite egress
 * pool. This is the multi-host testbed the open-loop scenarios run
 * on — incast means all N clients burst toward the one server port,
 * whose egress queue (and then TCP's loss recovery) absorbs the
 * oversubscription.
 *
 * StarWorld takes a Placement (testbed.hh). Unpartitioned, one
 * Simulation holds every host and the switch: the serial oracle.
 * Partitioned, the clients and the switch share one partition and the
 * server sits in another; only the bottleneck server cable crosses
 * between them, so its propagation delay is the lookahead. The switch
 * and every client cable stay partition-local. Both placements build
 * identical link/switch/engine parameters from the same StarConfig,
 * so the parallel differential can require byte-exact application
 * ledgers between them.
 */

#ifndef F4T_APPS_TESTBED_STAR_HH
#define F4T_APPS_TESTBED_STAR_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/f4t_socket_api.hh"
#include "apps/testbed.hh"
#include "core/engine.hh"
#include "f4t/runtime.hh"
#include "host/cpu.hh"
#include "net/link.hh"
#include "net/switch.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"

namespace f4t::testbed
{

struct StarConfig
{
    std::size_t clients = 8;
    std::size_t coresPerHost = 1;
    core::EngineConfig engine;
    net::SwitchConfig fabric; ///< numPorts overwritten to clients+1+extraPorts
    double clientBandwidthBps = 100e9;
    double serverBandwidthBps = 100e9;
    sim::Tick propagationDelay = sim::nanosecondsToTicks(500);
    /** Faults on the switch->server (bottleneck) direction. */
    net::FaultModel serverLinkFaults;
    /** Faults on the server->switch direction; defaults to the
     *  decorrelated reverse of serverLinkFaults. */
    std::optional<net::FaultModel> serverLinkReverseFaults;
    /** Switch ports beyond clients+1, for raw traffic injectors
     *  (load::SynFloodApp). No cable or route attaches to them. */
    std::size_t extraPorts = 0;
};

inline net::Ipv4Address
starClientIp(std::size_t index)
{
    return net::Ipv4Address::fromOctets(
        10, 0, 1, static_cast<std::uint8_t>(index + 1));
}

inline net::MacAddress
starClientMac(std::size_t index)
{
    return net::MacAddress{
        {0x02, 0xf4, 0, 0, 1, static_cast<std::uint8_t>(index + 1)}};
}

inline net::Ipv4Address
starServerIp()
{
    return net::Ipv4Address::fromOctets(10, 0, 1, 200);
}

inline net::MacAddress
starServerMac()
{
    return net::MacAddress{{0x02, 0xf4, 0, 0, 1, 0xc8}};
}

/** N clients and one server behind a switch. */
struct StarWorld : WorldKernel
{
    explicit StarWorld(const StarConfig &config = {},
                       Placement placement = {})
        : WorldKernel(placement)
    {
        net::SwitchConfig fabric_config = config.fabric;
        fabric_config.numPorts = config.clients + 1 + config.extraPorts;
        fabric = std::make_unique<net::Switch>(sim, "fabric",
                                               fabric_config);

        for (std::size_t i = 0; i < config.clients; ++i) {
            std::string suffix = std::to_string(i);
            core::EngineConfig engine_config = config.engine;
            engine_config.ip = starClientIp(i);
            engine_config.mac = starClientMac(i);
            auto engine = std::make_unique<core::FtEngine>(
                sim, "client" + suffix, engine_config);
            engine->addArpEntry(starServerIp(), starServerMac());

            auto link = std::make_unique<net::Link>(
                sim, "uplink" + suffix, config.clientBandwidthBps,
                config.propagationDelay);
            // Endpoint A is the switch port, so aToB is the switch's
            // transmitter toward the client and bToA the client's uplink.
            link->connect(fabric->port(i), *engine);
            fabric->attachTx(i, link->aToB());
            net::Link *cable = link.get();
            engine->setTransmit([cable](net::Packet &&pkt) {
                cable->bToA().send(std::move(pkt));
            });
            fabric->addRoute(starClientIp(i), i);

            clientCpus.push_back(std::make_unique<host::CpuComplex>(
                sim, "clientCpu" + suffix, config.coresPerHost));
            clientRuntimes.push_back(std::make_unique<lib::F4tRuntime>(
                sim, "clientRuntime" + suffix, *engine,
                config.coresPerHost));
            clientEngines.push_back(std::move(engine));
            clientLinks.push_back(std::move(link));
        }

        core::EngineConfig server_config = config.engine;
        server_config.ip = starServerIp();
        server_config.mac = starServerMac();
        serverEngine = std::make_unique<core::FtEngine>(
            simServer, "server", server_config);
        for (std::size_t i = 0; i < config.clients; ++i)
            serverEngine->addArpEntry(starClientIp(i), starClientMac(i));
        fabric->addRoute(starServerIp(), config.clients);

        serverCpu = std::make_unique<host::CpuComplex>(
            simServer, "serverCpu", config.coresPerHost);
        serverRuntime = std::make_unique<lib::F4tRuntime>(
            simServer, "serverRuntime", *serverEngine, config.coresPerHost);

        serverLink = std::make_unique<net::Link>(
            sim, simServer, "downlink", config.serverBandwidthBps,
            config.propagationDelay, config.serverLinkFaults,
            config.serverLinkReverseFaults);
        serverLink->connect(fabric->port(config.clients), *serverEngine);
        fabric->attachTx(config.clients, serverLink->aToB());
        serverEngine->setTransmit([this](net::Packet &&pkt) {
            serverLink->bToA().send(std::move(pkt));
        });

        partition("clients", "server", *serverLink);
    }

    apps::F4tSocketApi
    clientApi(std::size_t client, std::size_t thread = 0)
    {
        return apps::F4tSocketApi(sim, *clientRuntimes[client], thread,
                                  clientCpus[client]->core(thread));
    }

    apps::F4tSocketApi
    serverApi(std::size_t thread = 0)
    {
        return apps::F4tSocketApi(simServer, *serverRuntime, thread,
                                  serverCpu->core(thread));
    }

    /** Heap-allocated flavor for harnesses that hold many client
     *  apis in a container (F4tSocketApi cannot be moved). */
    std::unique_ptr<apps::F4tSocketApi>
    makeClientApi(std::size_t client, std::size_t thread = 0)
    {
        return std::make_unique<apps::F4tSocketApi>(
            sim, *clientRuntimes[client], thread,
            clientCpus[client]->core(thread));
    }

    /** The server's partition, or sim (which holds the clients and
     *  the switch). */
    sim::Simulation &simServer = sideB_;
    std::unique_ptr<net::Switch> fabric;
    std::vector<std::unique_ptr<core::FtEngine>> clientEngines;
    std::vector<std::unique_ptr<net::Link>> clientLinks;
    std::vector<std::unique_ptr<host::CpuComplex>> clientCpus;
    std::vector<std::unique_ptr<lib::F4tRuntime>> clientRuntimes;
    std::unique_ptr<core::FtEngine> serverEngine;
    std::unique_ptr<net::Link> serverLink;
    std::unique_ptr<host::CpuComplex> serverCpu;
    std::unique_ptr<lib::F4tRuntime> serverRuntime;
};

/**
 * Constructor shim for callers that name the partitioned star by type
 * (StarWorld with a partitioned Placement). @p threads is accepted
 * only because perfbench/runner.cc still passes its --threads value;
 * every run uses the caller's one thread. ROADMAP item 8 deletes the
 * shim with that flag.
 */
struct ParallelStarWorld : StarWorld
{
    explicit ParallelStarWorld(const StarConfig &config = {},
                               std::size_t threads = 1)
        : StarWorld(config, Placement{true})
    {
        if (threads > 1)
            f4t_warn("ParallelStarWorld: %zu threads requested; the "
                     "executor runs every partition on the calling thread",
                     threads);
    }

    sim::Simulation &simClients = sim;
};

} // namespace f4t::testbed

#endif // F4T_APPS_TESTBED_STAR_HH
