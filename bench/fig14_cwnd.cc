/**
 * @file
 * Figure 14: congestion window evolution of NewReno and CUBIC on F4T
 * versus the independent software reference stack (the role NS3 plays
 * in the paper).
 *
 * A single-flow bulk transfer runs over a 10 Gbps link with 250 us of
 * one-way delay (so the window dynamics are visible) and periodic
 * packet drops injected by the fault model. The F4T side programs the
 * algorithm into the FPU; the reference side is the from-scratch
 * floating-point SoftTcpStack. Matching sawtooth shapes demonstrate
 * the flexibility claim of Section 5.4.
 */

#include "apps/testbed.hh"
#include "apps/workloads.hh"
#include "bench_util.hh"

namespace f4t
{
namespace
{

struct TracePoint
{
    double ms;
    double cwnd_segments;
};

std::vector<TracePoint>
traceF4t(const std::string &algorithm, const net::FaultModel &faults)
{
    core::EngineConfig config;
    config.numFpcs = 1;
    config.flowsPerFpc = 16;
    config.maxFlows = 64;
    config.congestionControl = algorithm;
    // Long link: 250 us propagation so cwnd dynamics are visible.
    testbed::EnginePairWorld world(1, config, faults, 10e9, {},
                                   sim::microsecondsToTicks(250));

    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    auto client_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 8192;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    // The first active flow on engine A gets ID 0.
    std::vector<TracePoint> trace;
    for (int ms = 0; ms < 150; ++ms) {
        world.sim.runFor(sim::millisecondsToTicks(1));
        tcp::Tcb tcb = world.engineA->peekTcb(0);
        if (tcb.state == tcp::ConnState::established)
            trace.push_back({static_cast<double>(ms),
                             tcb.cwnd / 1460.0});
    }
    return trace;
}

std::vector<TracePoint>
traceReference(tcp::SoftCcAlgo algorithm, const net::FaultModel &faults)
{
    baseline::LinuxHostConfig host_config;
    host_config.cc = algorithm;
    host_config.chargeCosts = false; // pure protocol oracle
    host_config.latencyJitter = false;
    testbed::LinuxPairWorld world(1, host_config, faults, 10e9, {},
                                  sim::microsecondsToTicks(250));

    auto server_api = world.apiB(0);
    apps::BulkSinkConfig sink_config;
    apps::BulkSinkApp sink(server_api, sink_config);
    sink.start();

    auto client_api = world.apiA(0);
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 8192;
    apps::BulkSenderApp sender(client_api, sender_config);
    sender.start();

    tcp::SoftTcpStack &stack = world.hostA->stack(0);
    std::vector<TracePoint> trace;
    for (int ms = 0; ms < 150; ++ms) {
        world.sim.runFor(sim::millisecondsToTicks(1));
        double cwnd = stack.cwnd(1); // first connection ID
        if (cwnd > 0)
            trace.push_back({static_cast<double>(ms), cwnd / 1460.0});
    }
    return trace;
}

void
printPair(const char *name, const std::vector<TracePoint> &f4t_trace,
          const std::vector<TracePoint> &ref_trace)
{
    std::printf("\n%s congestion window (segments), 150 ms trace:\n",
                name);
    bench::Table table({"time (ms)", "F4T (FPU program)",
                        "reference (software oracle)"});
    for (std::size_t i = 0; i < f4t_trace.size() && i < ref_trace.size();
         i += 10) {
        table.addRow({bench::fmt("%.0f", f4t_trace[i].ms),
                      bench::fmt("%.1f", f4t_trace[i].cwnd_segments),
                      bench::fmt("%.1f", ref_trace[i].cwnd_segments)});
    }
    table.print();

    // Quantitative agreement: mean windows within a factor of two
    // (the traces see different random drop instants).
    double f4t_mean = 0, ref_mean = 0;
    for (const auto &p : f4t_trace)
        f4t_mean += p.cwnd_segments;
    for (const auto &p : ref_trace)
        ref_mean += p.cwnd_segments;
    f4t_mean /= f4t_trace.empty() ? 1 : f4t_trace.size();
    ref_mean /= ref_trace.empty() ? 1 : ref_trace.size();
    std::printf("mean cwnd: F4T %.1f segments, reference %.1f segments "
                "(ratio %.2f)\n",
                f4t_mean, ref_mean,
                ref_mean > 0 ? f4t_mean / ref_mean : 0.0);
}

} // namespace
} // namespace f4t

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("fig14_cwnd", "[capture flags]").parse(argc, argv);
    sim::setVerbose(false);

    bench::banner("Figure 14",
                  "cwnd of F4T's FPU programs vs the software oracle");

    // Deterministic drop schedule so both simulations lose a packet at
    // the same instants ("inject occasional packet drops", Section
    // 5.4) — the paper's RTL-vs-NS3 comparison controls drops the
    // same way.
    net::FaultModel faults;
    for (int ms : {15, 40, 65, 90, 115, 135})
        faults.dropAtTicks.push_back(sim::millisecondsToTicks(ms));
    faults.seed = 20230617;

    printPair("NEW RENO", traceF4t("newreno", faults),
              traceReference(tcp::SoftCcAlgo::newReno, faults));
    printPair("CUBIC", traceF4t("cubic", faults),
              traceReference(tcp::SoftCcAlgo::cubic, faults));

    std::printf(
        "\nShape check (paper): both algorithms show the classic\n"
        "sawtooth on F4T, tracking the independent reference — the FPU\n"
        "programs faithfully implement the congestion behaviour, and\n"
        "swapping algorithms is a recompile of the FPU program only.\n");
    return 0;
}
