/**
 * @file
 * Congestion-control lab: the programmability scenario (Section 4.5).
 *
 * "Users need to modify only the FPU to program the TCP stack": this
 * example runs the same lossy long-haul transfer three times, swapping
 * the FPU program between NewReno (14-cycle), CUBIC (41-cycle), and
 * Vegas (68-cycle) — a one-line configuration change — and prints the
 * goodput and retransmission behaviour of each. Nothing else in the
 * engine changes, and none of them run any slower (Fig. 15).
 */

#include <cstdio>

#include "apps/testbed.hh"
#include "apps/workloads.hh"

using namespace f4t;

namespace
{

struct LabResult
{
    double gbps;
    std::uint64_t retransmissions;
    double final_cwnd_segments;
    unsigned fpu_latency;
};

LabResult
runAlgorithm(const std::string &algorithm)
{
    net::FaultModel faults;
    faults.dropProbability = 0.0002;
    faults.seed = 99;

    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 16;
    config.maxFlows = 64;
    config.congestionControl = algorithm; // the one-line change
    // A long link (100 us one-way) so windows matter.
    testbed::EnginePairWorld world(1, config, faults, 10e9, {},
                                   sim::microsecondsToTicks(100));

    auto sink_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(sink_api, sink_config);
    sink.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    auto send_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 8192;
    apps::BulkSenderApp sender(send_api, sender_config);
    sender.start();

    sim::Tick window = sim::millisecondsToTicks(40);
    world.sim.runFor(sim::millisecondsToTicks(5)); // warm up
    std::uint64_t before = sink.bytesReceived();
    world.sim.runFor(window);

    LabResult result;
    result.gbps = (sink.bytesReceived() - before) * 8.0 /
                  sim::ticksToSeconds(window) / 1e9;
    result.retransmissions =
        world.engineA->packetGenerator().retransmissions();
    result.final_cwnd_segments =
        world.engineA->peekTcb(0).cwnd / 1460.0;
    result.fpu_latency = world.engineA->fpc(0).fpuLatency();
    return result;
}

} // namespace

int
main()
{
    sim::setVerbose(false);

    std::printf("congestion-control lab: 10 Gbps, 200 us RTT, 0.02%% "
                "loss, 45 ms transfer\n\n");
    std::printf("%-10s %12s %8s %16s %14s\n", "algorithm",
                "FPU latency", "Gbps", "retransmissions",
                "final cwnd");
    std::printf("%s\n", std::string(64, '-').c_str());

    for (const char *algorithm : {"newreno", "cubic", "vegas"}) {
        LabResult result = runAlgorithm(algorithm);
        std::printf("%-10s %9u cyc %8.2f %16llu %11.0f seg\n", algorithm,
                    result.fpu_latency, result.gbps,
                    static_cast<unsigned long long>(
                        result.retransmissions),
                    result.final_cwnd_segments);
    }

    std::printf(
        "\nAll three run at the engine's full event rate despite the\n"
        "5x spread in processing latency — that is F4T's versatility\n"
        "claim. CUBIC's aggressive window recovery typically wins on\n"
        "this lossy long-haul link; Vegas backs off on queueing delay.\n");
    return 0;
}
