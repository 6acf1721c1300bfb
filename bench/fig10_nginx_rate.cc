/**
 * @file
 * Figure 10: Nginx request processing rate on F4T vs Linux, one to
 * four server cores, versus the number of wrk connections.
 */

#include "bench_util.hh"
#include "nginx_common.hh"

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("fig10_nginx_rate", "[capture flags]").parse(argc, argv);
    sim::setVerbose(false);

    bench::banner("Figure 10", "Nginx request rate: F4T vs Linux");

    sim::Tick warmup = sim::millisecondsToTicks(2);
    sim::Tick window = sim::millisecondsToTicks(4);

    for (std::size_t cores : {1u, 2u, 4u}) {
        std::printf("\n%zu server core%s:\n", cores,
                    cores == 1 ? "" : "s");
        bench::Table table({"flows", "Linux Mrps", "F4T Mrps",
                            "speedup"});
        for (std::size_t flows : {4u, 16u, 64u, 256u}) {
            bench::NginxResult linux_result = bench::runNginxLinux(
                cores, flows, warmup, window, /*jitter=*/false);
            bench::NginxResult f4t_result =
                bench::runNginxF4t(cores, flows, warmup, window);
            double speedup =
                linux_result.requestsPerSecond > 0
                    ? f4t_result.requestsPerSecond /
                          linux_result.requestsPerSecond
                    : 0;
            table.addRow(
                {std::to_string(flows),
                 bench::fmt("%.2f", linux_result.requestsPerSecond / 1e6),
                 bench::fmt("%.2f", f4t_result.requestsPerSecond / 1e6),
                 bench::fmt("%.2fx", speedup)});
        }
        table.print();
    }

    std::printf(
        "\nShape check (paper): at the saturation point (256 flows) F4T\n"
        "serves 2.6x-2.8x the requests of Linux with the same cores,\n"
        "because the cycles the kernel TCP stack burned now run Nginx\n"
        "itself (Section 5.2).\n");
    return 0;
}
