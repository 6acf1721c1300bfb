/**
 * @file
 * Figure 2: bulk data transfer performance of a design that stalls
 * 17 cycles per event for RMW atomicity (w-RMW, Limago-style) versus
 * a theoretical design with no RMW stalls that accepts one
 * arbitrary-length request per cycle at 100 MHz (w/o-RMW, the
 * idealized TONIC of Section 3.1). No link bottleneck is assumed.
 */

#include "baseline/stalling_engine.hh"
#include "baseline/tonic_model.hh"
#include "bench_util.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

/** Measured event rate of the stalling design (requests/s). */
double
measureStallingRate()
{
    sim::Simulation sim;
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program(cc);
    baseline::StallingEngineConfig config; // 16 + 1 = 17 cycles/event
    baseline::StallingEngine engine(sim, "wrmw", sim.netClock(), program,
                                    config);
    tcp::FlowId flow = engine.createSyntheticFlow();

    std::uint32_t offset = 0;
    sim::Tick window = sim::microsecondsToTicks(50);
    sim::Tick end = sim.now() + window;
    std::uint64_t before = engine.eventsProcessed();
    while (sim.now() < end) {
        while (engine.backlog() < 64) {
            offset += 16;
            tcp::TcpEvent ev;
            ev.flow = flow;
            ev.type = tcp::TcpEventType::userSend;
            ev.pointer =
                tcp::FpuProgram::initialSequence(flow) + 1 + offset;
            engine.injectEvent(ev);
        }
        sim.runFor(sim.netClock().period() * 32);
    }
    return (engine.eventsProcessed() - before) /
           sim::ticksToSeconds(window);
}

} // namespace
} // namespace f4t

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("fig02_rmw_stalls", "[capture flags]").parse(argc, argv);
    sim::setVerbose(false);

    bench::banner("Figure 2",
                  "bulk transfer: w-RMW stalls vs w/o-RMW (no link cap)");

    double wrmw_rate = measureStallingRate();
    baseline::TonicModel tonic;

    bench::Table table({"request size (B)", "w-RMW (Gbps)",
                        "w/o-RMW (Gbps)", "gap"});
    for (std::size_t size : {16u, 32u, 64u, 128u, 256u, 512u, 1024u,
                             2048u, 4096u}) {
        double wrmw = wrmw_rate * size * 8 / 1e9;
        double ideal = tonic.idealThroughputBps(size) / 1e9;
        table.addRow({std::to_string(size), bench::fmt("%.2f", wrmw),
                      bench::fmt("%.2f", ideal),
                      bench::fmt("%.1fx", ideal / wrmw)});
    }
    table.print();

    std::printf(
        "\nMeasured w-RMW event rate: %.1f M requests/s (paper: 322 MHz\n"
        "with a 17-cycle stall = 18.9 M/s). The w/o-RMW design is one\n"
        "request per 100 MHz cycle. The ~5.3x gap at every request size\n"
        "is the performance lost to RMW stalls (Section 3.1); at 128 B\n"
        "the stalling design cannot even reach 100 Gbps while the\n"
        "stall-free one exceeds it.\n",
        wrmw_rate / 1e6);
    return 0;
}
