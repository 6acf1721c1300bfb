/**
 * @file
 * Figure 11: CPU utilization breakdown of Nginx on Linux vs F4T (one
 * server core, 64 flows). F4T removes the kernel TCP cycles entirely;
 * the reclaimed cycles go to the application, which is why the request
 * rate rises ~2.8x. The remaining kernel time is filesystem access
 * (vfs_read of the HTML file), which offloading TCP cannot remove.
 */

#include "bench_util.hh"
#include "nginx_common.hh"
#include "obs/stage_report.hh"

namespace
{

/**
 * --spans: the same breakdown idea, but derived from request spans
 * rebuilt from probe records instead of CPU cost-category counters —
 * where a request's time goes stage by stage, split into queueing and
 * service, on an all-F4T engine pair (both ends captured).
 */
int
runSpansMode(const std::string &out_path)
{
    using namespace f4t;
    bench::banner("Figure 11 (spans)",
                  "per-stage time breakdown from request spans "
                  "(F4T pair, 64 flows)");
    bench::TracedNginxRun run = bench::runNginxF4tPairTraced(
        64, sim::millisecondsToTicks(2), sim::millisecondsToTicks(5));
    std::printf("request rate: %.2f Mrps (all-F4T pair)\n\n",
                run.result.requestsPerSecond / 1e6);
    obs::printStageTable(stdout, *run.spans);
    std::printf("\ncritical path of the slowest traced request:\n");
    obs::printSlowestCriticalPath(stdout, *run.spans);
    if (out_path.empty())
        return 0;
    if (!obs::writeStageJson(out_path, *run.spans, obs::currentRunMeta()))
        return 1;
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    sim::setVerbose(false);

    bool spans = false;
    std::string spans_out;
    bench::CliArgs args("fig11_cpu_breakdown", "[--spans [--spans-out PATH]]");
    args.flag("--spans", spans)
        .output("--spans-out", spans_out)
        .parse(argc, argv);
    if (!spans && !spans_out.empty())
        args.fail("--spans-out needs --spans");
    if (spans)
        return runSpansMode(spans_out);

    bench::banner("Figure 11",
                  "Nginx CPU breakdown: Linux vs F4T (1 core, 64 flows)");

    sim::Tick warmup = sim::millisecondsToTicks(2);
    sim::Tick window = sim::millisecondsToTicks(5);

    bench::NginxResult linux_result =
        bench::runNginxLinux(1, 64, warmup, window, /*jitter=*/false);
    bench::NginxResult f4t_result =
        bench::runNginxF4t(1, 64, warmup, window);

    auto share = [](const bench::NginxResult &r, double part) {
        double total = r.appCycles + r.tcpCycles + r.kernelCycles +
                       r.libraryCycles + r.filesystemCycles;
        return total > 0 ? 100.0 * part / total : 0.0;
    };

    bench::Table table({"category", "Linux cyc/req", "Linux %",
                        "F4T cyc/req", "F4T %"});
    table.addRow({"application",
                  bench::fmt("%.0f", linux_result.appCycles),
                  bench::fmt("%.0f%%",
                             share(linux_result, linux_result.appCycles)),
                  bench::fmt("%.0f", f4t_result.appCycles),
                  bench::fmt("%.0f%%",
                             share(f4t_result, f4t_result.appCycles))});
    table.addRow({"kernel TCP",
                  bench::fmt("%.0f", linux_result.tcpCycles),
                  bench::fmt("%.0f%%",
                             share(linux_result, linux_result.tcpCycles)),
                  bench::fmt("%.0f", f4t_result.tcpCycles),
                  bench::fmt("%.0f%%",
                             share(f4t_result, f4t_result.tcpCycles))});
    table.addRow(
        {"other kernel",
         bench::fmt("%.0f", linux_result.kernelCycles),
         bench::fmt("%.0f%%", share(linux_result,
                                    linux_result.kernelCycles)),
         bench::fmt("%.0f", f4t_result.kernelCycles),
         bench::fmt("%.0f%%", share(f4t_result, f4t_result.kernelCycles))});
    table.addRow(
        {"filesystem (vfs_read)",
         bench::fmt("%.0f", linux_result.filesystemCycles),
         bench::fmt("%.0f%%",
                    share(linux_result, linux_result.filesystemCycles)),
         bench::fmt("%.0f", f4t_result.filesystemCycles),
         bench::fmt("%.0f%%",
                    share(f4t_result, f4t_result.filesystemCycles))});
    table.addRow(
        {"F4T library",
         bench::fmt("%.0f", linux_result.libraryCycles),
         bench::fmt("%.0f%%",
                    share(linux_result, linux_result.libraryCycles)),
         bench::fmt("%.0f", f4t_result.libraryCycles),
         bench::fmt("%.0f%%", share(f4t_result,
                                    f4t_result.libraryCycles))});
    table.print();

    double app_gain = linux_result.appCycles > 0
                          ? (f4t_result.requestsPerSecond *
                             f4t_result.appCycles) /
                                (linux_result.requestsPerSecond *
                                 linux_result.appCycles)
                          : 0;
    std::printf(
        "\nrequest rate: Linux %.2f Mrps, F4T %.2f Mrps (%.2fx)\n"
        "application cycles per second: %.2fx (paper: 2.8x)\n"
        "kernel TCP cycles on F4T: %.0f (paper: all removed)\n",
        linux_result.requestsPerSecond / 1e6,
        f4t_result.requestsPerSecond / 1e6,
        f4t_result.requestsPerSecond / linux_result.requestsPerSecond,
        app_gain, f4t_result.tcpCycles);
    return 0;
}
