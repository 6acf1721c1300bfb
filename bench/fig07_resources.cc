/**
 * @file
 * Figure 7b: FtEngine resource utilization on the Alveo U280, from
 * the analytical resource model (calibrated to the paper's published
 * totals; see DESIGN.md for the substitution note — we cannot run
 * Vivado synthesis).
 */

#include "bench_util.hh"
#include "core/resource_model.hh"

int
main(int argc, char **argv)
{
    using namespace f4t;
    bench::Obs::install(argc, argv);
    bench::CliArgs("fig07_resources", "[capture flags]").parse(argc, argv);

    bench::banner("Figure 7b", "FtEngine resource utilization (U280)");

    for (std::size_t fpcs : {1u, 8u}) {
        core::ResourceModel model(fpcs, 128, /*hbm=*/true);
        std::printf("\nFtEngine with %zu FPC%s (HBM):\n", fpcs,
                    fpcs == 1 ? "" : "s");
        std::printf("%s", model.report().c_str());

        core::ResourceUsage total = model.total();
        double paper_lut = fpcs == 1 ? 16.0 : 23.0;
        double paper_ff = fpcs == 1 ? 11.0 : 15.0;
        double paper_bram = fpcs == 1 ? 27.0 : 32.0;
        std::printf("paper:  LUT %.0f%%  FF %.0f%%  BRAM %.0f%%   |   "
                    "model: LUT %.1f%%  FF %.1f%%  BRAM %.1f%%\n",
                    paper_lut, paper_ff, paper_bram, total.lutPercent(),
                    total.ffPercent(), total.bramPercent());
    }

    // Scaling study beyond the paper: more FPCs / deeper TCB tables.
    std::printf("\nConfiguration scaling (model projection):\n");
    bench::Table table({"FPCs", "flows/FPC", "LUT%", "FF%", "BRAM%"});
    for (std::size_t fpcs : {1u, 4u, 8u, 16u, 32u}) {
        for (std::size_t flows : {128u, 1024u}) {
            core::ResourceModel model(fpcs, flows, true);
            core::ResourceUsage total = model.total();
            table.addRow({std::to_string(fpcs), std::to_string(flows),
                          bench::fmt("%.1f", total.lutPercent()),
                          bench::fmt("%.1f", total.ffPercent()),
                          bench::fmt("%.1f", total.bramPercent())});
        }
    }
    table.print();
    return 0;
}
