/**
 * @file
 * Figure 1: the motivation measurement — Nginx on the Linux TCP stack.
 * (a) CPU utilization breakdown: the TCP stack consumes ~37 % of the
 * cycles; (b) request processing rate vs CPU cores: far from
 * saturating a 100 Gbps link.
 */

#include "bench_util.hh"
#include "nginx_common.hh"

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("fig01_nginx_linux", "[capture flags]").parse(argc, argv);
    sim::setVerbose(false);

    bench::banner("Figure 1", "Nginx on the Linux TCP stack");

    sim::Tick warmup = sim::millisecondsToTicks(2);
    sim::Tick window = sim::millisecondsToTicks(5);

    // (a) breakdown at one core, saturated.
    bench::NginxResult one = bench::runNginxLinux(1, 64, warmup, window,
                                                  /*jitter=*/false);
    double total = one.appCycles + one.tcpCycles + one.kernelCycles +
                   one.filesystemCycles + one.libraryCycles;
    std::printf("\n(a) CPU utilization breakdown (1 core, 64 flows):\n");
    bench::Table breakdown({"category", "cycles/request", "share",
                            "paper share"});
    breakdown.addRow({"application", bench::fmt("%.0f", one.appCycles),
                      bench::fmt("%.0f%%", 100 * one.appCycles / total),
                      "~26%"});
    breakdown.addRow({"TCP stack", bench::fmt("%.0f", one.tcpCycles),
                      bench::fmt("%.0f%%", 100 * one.tcpCycles / total),
                      "37%"});
    breakdown.addRow(
        {"other kernel (incl. vfs)",
         bench::fmt("%.0f", one.kernelCycles + one.filesystemCycles),
         bench::fmt("%.0f%%", 100 * (one.kernelCycles +
                                     one.filesystemCycles) /
                                  total),
         "~37%"});
    breakdown.print();

    // (b) request rate vs cores.
    std::printf("\n(b) request processing rate vs cores (64 flows/core):\n");
    bench::Table rate({"cores", "Mrps", "goodput Gbps (256 B)"});
    for (std::size_t cores : {1u, 2u, 4u, 8u}) {
        bench::NginxResult r = bench::runNginxLinux(
            cores, 64 * cores, warmup, window, /*jitter=*/false);
        rate.addRow({std::to_string(cores),
                     bench::fmt("%.2f", r.requestsPerSecond / 1e6),
                     bench::fmt("%.2f",
                                r.requestsPerSecond * 256 * 8 / 1e9)});
    }
    rate.print();

    std::printf(
        "\nShape check (paper): the TCP stack takes ~37%% of the CPU and\n"
        "Nginx stays in the low millions of requests/s — nowhere near\n"
        "the 100 Gbps link (which would need ~37 Mrps at 256 B+overhead).\n");
    return 0;
}
