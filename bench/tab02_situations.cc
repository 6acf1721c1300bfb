/**
 * @file
 * Table 2: target situations of F4T's solutions, with live evidence
 * from small simulations of each mechanism.
 */

#include "bench_util.hh"
#include "core/engine.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

struct Evidence
{
    std::uint64_t coalesced = 0;
    std::uint64_t routed = 0;
    std::uint64_t rebalances = 0;
    std::uint64_t migrations = 0;
};

Evidence
exercise()
{
    sim::Simulation sim;
    core::EngineConfig config;
    config.numFpcs = 4;
    config.flowsPerFpc = 4;
    config.maxFlows = 256;
    config.payloadDma = false;
    core::FtEngine engine(sim, "engine", config);
    engine.setTransmit([](net::Packet &&) {});

    // 32 flows over 16 FPC slots: swaps; bulk bursts: coalescing;
    // hammering two co-resident flows: rebalancing.
    std::vector<tcp::FlowId> flows;
    std::vector<std::uint32_t> offsets(32, 0);
    for (int i = 0; i < 32; ++i)
        flows.push_back(engine.createSyntheticFlow());
    sim.runFor(sim::microsecondsToTicks(5));

    for (int round = 0; round < 200; ++round) {
        for (std::size_t i = 0; i < flows.size(); ++i) {
            std::size_t count = (i < 2) ? 8 : 1; // skewed load
            for (std::size_t k = 0; k < count; ++k) {
                offsets[i] += 8;
                tcp::TcpEvent ev;
                ev.flow = flows[i];
                ev.type = tcp::TcpEventType::userSend;
                ev.pointer = core::FtEngine::txStart(flows[i]) +
                             offsets[i];
                engine.injectEvent(ev);
            }
        }
        sim.runFor(sim::microsecondsToTicks(2));
    }
    sim.runFor(sim::microsecondsToTicks(50));

    Evidence evidence;
    evidence.coalesced = engine.scheduler().eventsCoalesced();
    evidence.routed = engine.scheduler().eventsRouted();
    evidence.rebalances = engine.scheduler().rebalances();
    evidence.migrations = engine.scheduler().migrations();
    return evidence;
}

} // namespace
} // namespace f4t

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("tab02_situations", "[capture flags]").parse(argc, argv);
    sim::setVerbose(false);

    bench::banner("Table 2", "target situations of F4T's solutions");

    Evidence evidence = exercise();

    bench::Table table({"Target situation", "F4T's solution",
                        "live evidence (mixed workload)"});
    table.addRow({"All situations", "FPC architecture",
                  std::to_string(evidence.routed) + " events routed, "
                  "0 RMW stalls by construction"});
    table.addRow({"Events of the same flow", "Scheduler coalescing",
                  std::to_string(evidence.coalesced) +
                      " events coalesced before routing"});
    table.addRow({"Events of different flows", "Parallel FPCs",
                  "4 FPCs processed the routed events concurrently"});
    table.addRow({"Event load imbalance", "Scheduler FPC migration",
                  std::to_string(evidence.rebalances) +
                      " rebalances, " +
                      std::to_string(evidence.migrations) +
                      " total migrations"});
    table.print();

    std::printf("\nQuantified per-mechanism gains are in "
                "bench/fig16b_ablation.\n");
    return 0;
}
