/**
 * @file
 * Table 1: summary of existing TCP implementations, generated from
 * the feature flags of the five systems in this repository.
 */

#include "baseline/tonic_model.hh"
#include "bench_util.hh"
#include "core/engine.hh"

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("tab01_summary", "[capture flags]").parse(argc, argv);

    bench::banner("Table 1", "summary of existing TCP implementations");

    baseline::TonicModel tonic;
    core::EngineConfig f4t_config;

    bench::Table table({"", "Host CPUs", "Embedded", "ASICs",
                        "Existing FPGAs", "F4T"});
    table.addRow({"Host CPU util.", "poor (37% on Nginx)",
                  "limited improvement", "good", "good", "good"});
    table.addRow({"Connectivity", "64K+", "64K+", "64K+",
                  std::to_string(tonic.maxFlows),
                  std::to_string(f4t_config.maxFlows) + "+"});
    table.addRow({"Flexibility", "low versatility", "low versatility",
                  "none", "low versatility", "high"});
    table.addRow({"Max algo latency", "n/a", "n/a", "fixed",
                  std::to_string(tonic.maxAlgorithmLatencyCycles) +
                      " cycle",
                  "unbounded (68+ tested)"});
    table.addRow({"Byte-level transfer", "yes", "yes", "yes",
                  "no (128 B segments)", "yes"});
    table.print();

    std::printf(
        "\nEvidence in this repository:\n"
        "  - host CPU cost: bench/fig01_nginx_linux (37%% TCP share),\n"
        "    bench/fig11_cpu_breakdown (F4T removes it);\n"
        "  - connectivity: bench/fig13_connectivity (64 K flows) vs the\n"
        "    TONIC model's %zu-flow SRAM bound;\n"
        "  - flexibility: bench/fig15_versatility (rate flat from 1 to\n"
        "    100-cycle algorithms) and bench/fig14_cwnd (NewReno and\n"
        "    CUBIC programmed as FPU programs).\n",
        tonic.maxFlows);
    return 0;
}
