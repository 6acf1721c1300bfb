/**
 * @file
 * Figure 12: median and 99th-percentile latency of Nginx on Linux vs
 * F4T (one server core). Despite FtEngine's deferred event processing,
 * F4T's latency is far lower: the library polls in userspace while
 * Linux responses ride on scheduler/softirq wakeups with a heavy tail
 * (3.7x median, 26x p99 in the paper).
 */

#include "bench_util.hh"
#include "nginx_common.hh"
#include "obs/stage_report.hh"

namespace
{

/**
 * --spans: per-stage latency attribution for the F4T side, from request
 * spans rebuilt from the probe records of an all-F4T engine pair. The
 * e2e row is the histogram the p50/p99 figures derive from: a request
 * runs send() on one host to delivery on the other, so the stage p50s
 * sum (within queue overlap) to the e2e p50 printed below it.
 */
int
runSpansMode(const std::string &out_path)
{
    using namespace f4t;
    bench::banner("Figure 12 (spans)",
                  "per-stage latency from request spans "
                  "(F4T pair, 64 flows)");
    bench::TracedNginxRun run = bench::runNginxF4tPairTraced(
        64, sim::millisecondsToTicks(2), sim::millisecondsToTicks(12));
    obs::printStageTable(stdout, *run.spans);

    sim::Histogram &e2e = run.spans->e2e();
    std::printf(
        "\ntraced send->deliver latency (histogram-derived): "
        "p50 %.3f us, p99 %.3f us over %llu requests\n",
        e2e.percentile(50.0), e2e.percentile(99.0),
        static_cast<unsigned long long>(e2e.count()));
    std::printf(
        "HTTP transaction latency (load-generator view, two traced "
        "sends + server think time): p50 %.1f us, p99 %.1f us\n",
        run.result.latencyP50Us, run.result.latencyP99Us);
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
    bench::CliArgs args("fig12_latency", "[--spans [--spans-out PATH]]");
    args.flag("--spans", spans)
        .output("--spans-out", spans_out)
        .parse(argc, argv);
    if (!spans && !spans_out.empty())
        args.fail("--spans-out needs --spans");
    if (spans)
        return runSpansMode(spans_out);

    bench::banner("Figure 12", "Nginx latency: Linux vs F4T (1 core)");

    sim::Tick warmup = sim::millisecondsToTicks(2);
    sim::Tick window = sim::millisecondsToTicks(12);

    bench::Table table({"flows", "Linux p50 (us)", "F4T p50 (us)",
                        "ratio", "Linux p99 (us)", "F4T p99 (us)",
                        "ratio"});
    for (std::size_t flows : {4u, 16u, 64u}) {
        bench::NginxResult linux_result = bench::runNginxLinux(
            1, flows, warmup, window, /*jitter=*/true);
        bench::NginxResult f4t_result =
            bench::runNginxF4t(1, flows, warmup, window);
        table.addRow(
            {std::to_string(flows),
             bench::fmt("%.1f", linux_result.latencyP50Us),
             bench::fmt("%.1f", f4t_result.latencyP50Us),
             bench::fmt("%.1fx", f4t_result.latencyP50Us > 0
                                     ? linux_result.latencyP50Us /
                                           f4t_result.latencyP50Us
                                     : 0),
             bench::fmt("%.1f", linux_result.latencyP99Us),
             bench::fmt("%.1f", f4t_result.latencyP99Us),
             bench::fmt("%.1fx", f4t_result.latencyP99Us > 0
                                     ? linux_result.latencyP99Us /
                                           f4t_result.latencyP99Us
                                     : 0)});
    }
    table.print();

    std::printf(
        "\nShape check (paper, 64 flows): 3.7x lower median and 26x\n"
        "lower p99 on F4T — the deferred FPC processing adds at most\n"
        "~1 us (one round-robin iteration), negligible against kernel\n"
        "wakeup jitter (Section 5.2).\n");
    return 0;
}
