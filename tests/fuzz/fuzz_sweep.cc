/**
 * @file
 * fuzz_sweep: the long-running randomized differential sweep.
 *
 *   fuzz_sweep [first_seed] [count]
 *
 * Runs `count` consecutive seeds starting at `first_seed` (defaults:
 * 1000, 50), each as a full four-world differential run (the FtEngine
 * pair in one Simulation and split into two executor partitions,
 * FtEngine/Linux, Linux/Linux), and exits nonzero on the first
 * divergence or oracle violation. The failure report names the seed;
 * replay it with `fuzz_sweep <seed> 1`.
 *
 * The command line is strict (bench::CliArgs): a value that is not a
 * plain number (decimal, or hex after 0x), a count of 0 or a seed
 * range past 2^64, an extra argument, or an unknown flag prints usage
 * and exits 2 without running a seed.
 */

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cli_args.hh"
#include "fuzz_runner.hh"

int
main(int argc, char **argv)
{
    using namespace f4t::fuzz;
    f4t::bench::Obs::install(argc, argv);

    f4t::bench::CliArgs args("fuzz_sweep", "[first_seed] [count]");
    std::vector<std::string> positionals;
    args.parse(argc, argv, &positionals);
    if (positionals.size() > 2)
        args.fail("unexpected argument '" + positionals[2] + "'");
    std::uint64_t first = 1000;
    std::uint64_t count = 50;
    std::uint64_t *values[] = {&first, &count};
    for (std::size_t i = 0; i < positionals.size(); ++i) {
        if (!args.parseNumber(positionals[i].c_str(),
                              std::numeric_limits<std::uint64_t>::max(),
                              *values[i]))
            args.fail("not a number: '" + positionals[i] + "'");
    }
    if (count == 0)
        args.fail("count must be at least 1");
    if (first > std::numeric_limits<std::uint64_t>::max() - count)
        args.fail("seed range runs past 2^64");

    std::printf("fuzz_sweep: seeds [%llu, %llu)\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(first + count));
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        std::string report = runDifferential(seed);
        if (!report.empty()) {
            std::printf("FAIL seed %llu\n%s\n",
                        static_cast<unsigned long long>(seed),
                        report.c_str());
            if (!f4t::bench::Obs::active()) {
                // Replay the failing seed with every capture sink on so
                // the divergence arrives with pcap/timeline/stat
                // evidence attached.
                std::string prefix =
                    "fuzz_fail_" + std::to_string(seed);
                std::printf("replaying with capture -> %s.*\n",
                            prefix.c_str());
                f4t::bench::Obs::capturePrefix(prefix);
                runDifferential(seed);
            }
            return 1;
        }
        std::printf("  seed %llu ok\n",
                    static_cast<unsigned long long>(seed));
    }
    std::printf("fuzz_sweep: %llu seeds passed\n",
                static_cast<unsigned long long>(count));
    return 0;
}
