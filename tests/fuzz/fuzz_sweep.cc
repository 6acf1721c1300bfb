/**
 * @file
 * fuzz_sweep: the long-running randomized differential sweep.
 *
 *   fuzz_sweep [first_seed] [count]
 *
 * Runs `count` consecutive seeds starting at `first_seed` (defaults:
 * 1000, 50), each as a full four-world differential run (the FtEngine
 * pair in one Simulation and partitioned at 2 executor workers,
 * FtEngine/Linux, Linux/Linux), and exits nonzero on the first
 * divergence or oracle violation. The failure report names the seed;
 * replay it with `fuzz_sweep <seed> 1`.
 *
 * The command line is strict: a value that is not a plain decimal
 * number, a count of 0 or a seed range past 2^64, an extra argument,
 * or an unknown flag prints usage and exits 2 without running a seed.
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench_util.hh"
#include "fuzz_runner.hh"

namespace
{

[[noreturn]] void
usageError(const std::string &problem)
{
    std::fprintf(stderr,
                 "fuzz_sweep: %s\n"
                 "usage: fuzz_sweep [first_seed] [count]\n"
                 "  first_seed  decimal, default 1000\n"
                 "  count       decimal, at least 1, default 50\n",
                 problem.c_str());
    std::exit(2);
}

/** A plain decimal unsigned 64-bit number, nothing before or after. */
std::uint64_t
parseDecimal(const char *arg)
{
    const std::string quoted = std::string("'") + arg + "'";
    if (*arg < '0' || *arg > '9')
        usageError("not a decimal number: " + quoted);
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(arg, &end, 10);
    if (*end != '\0')
        usageError("not a decimal number: " + quoted);
    if (errno == ERANGE)
        usageError("out of range: " + quoted);
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace f4t::fuzz;
    f4t::bench::Obs::install(argc, argv);

    std::uint64_t first = 1000;
    std::uint64_t count = 50;
    std::uint64_t *positional[] = {&first, &count};
    int given = 0;
    for (int i = 1; i < argc; ++i) {
        if (argv[i][0] == '-')
            usageError(std::string("unknown flag: '") + argv[i] + "'");
        if (given == 2)
            usageError(std::string("unexpected argument: '") + argv[i] +
                       "'");
        *positional[given++] = parseDecimal(argv[i]);
    }
    if (count == 0)
        usageError("count must be at least 1");
    if (first > std::numeric_limits<std::uint64_t>::max() - count)
        usageError("seed range runs past 2^64");

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
