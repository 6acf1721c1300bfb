/**
 * @file
 * Decoder for flight-recorder dumps (.f4tfr): sorts the ring into a
 * tick-ordered timeline and summarizes activity per module and per
 * event kind, with a per-flow drill-down.
 *
 *   f4t_blackbox dump.f4tfr             # summary + last 50 events
 *   f4t_blackbox --last 200 dump.f4tfr  # longer tail
 *   f4t_blackbox --flow 0x1c2d3e4f d.f4tfr   # one flow's records only
 *   f4t_blackbox --selftest             # synthesize, dump, re-decode
 *
 * Multiple dumps decode in sequence (the fuzz harness writes one per
 * world, side by side). An unknown flag, a missing value or a value
 * that is not a non-negative number (decimal or 0x hex) exits 2 with
 * usage before any dump is read. The decoding core lives in
 * sim/flight_recorder.{hh,cc} so tests can round-trip without
 * spawning this binary.
 */

#include "cli_args.hh"
#include "sim/flight_recorder.hh"
#include "sim/probe.hh"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace
{

using namespace f4t::sim;

void
printDump(const std::string &path, std::size_t last_k,
          bool flow_set, std::uint32_t flow)
{
    fr::Snapshot snap;
    std::string reason;
    std::string error;
    if (!fr::readDump(path, snap, reason, error)) {
        std::fprintf(stderr, "f4t_blackbox: %s\n", error.c_str());
        std::exit(1);
    }

    std::printf("== %s ==\n", path.c_str());
    std::printf("reason: %s\n", reason.c_str());
    std::printf("records: %zu retained of %llu written\n",
                snap.records.size(),
                static_cast<unsigned long long>(snap.totalWritten));

    std::vector<fr::Record> timeline = fr::tickOrdered(snap);

    // Per-module and per-kind activity over the retained window.
    std::map<std::uint16_t, std::uint64_t> by_module;
    std::map<std::uint8_t, std::uint64_t> by_kind;
    for (const fr::Record &rec : timeline) {
        ++by_module[rec.module];
        ++by_kind[rec.kind];
    }
    std::printf("\nper-module counts:\n");
    for (const auto &[module, count] : by_module) {
        const char *name = module < snap.modules.size()
                               ? snap.modules[module].c_str()
                               : "?";
        std::printf("  %-28s %llu\n", name,
                    static_cast<unsigned long long>(count));
    }
    std::printf("per-kind counts:\n");
    for (const auto &[kind, count] : by_kind) {
        std::printf("  %-28s %llu\n", probe::info(kind).name,
                    static_cast<unsigned long long>(count));
    }

    if (flow_set) {
        std::erase_if(timeline, [flow](const fr::Record &rec) {
            return rec.flow != flow;
        });
        std::printf("\nflow %08x drill-down: %zu records\n", flow,
                    timeline.size());
    }

    std::size_t start =
        timeline.size() > last_k ? timeline.size() - last_k : 0;
    std::printf("\nlast %zu events (tick-ordered):\n",
                timeline.size() - start);
    for (std::size_t i = start; i < timeline.size(); ++i)
        std::printf("  %s\n",
                    fr::formatEntry(snap, timeline[i]).c_str());
    std::printf("\n");
}

/** Write two interleaved modules with out-of-order ticks, wrap the
 *  ring, dump, re-decode, verify. */
int
selftest()
{
    std::uint16_t alpha = fr::internModule("selftest.alpha");
    std::uint16_t beta = fr::internModule("selftest.beta");
    fr::clear();

    // Every eighth record is beta's, stamped one tick before alpha's
    // record it follows, so write order is not tick order. The first
    // 100 records wrap out.
    constexpr std::size_t total = fr::ringCapacity + 100;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (i % 8 == 7)
            fr::record(fr::Kind::evDispatch, 2 * i - 3, beta, 9, i);
        else
            fr::record(fr::Kind::mark, 2 * i, alpha, 7, i);
    }

    const char *dir = std::getenv("TMPDIR");
    std::string path = std::string(dir && dir[0] ? dir : "/tmp") +
                       "/f4t_blackbox_selftest.f4tfr";
    if (!fr::dumpToFile(path, "selftest")) {
        std::fprintf(stderr, "selftest: dump failed\n");
        return 1;
    }

    fr::Snapshot snap;
    std::string reason;
    std::string error;
    if (!fr::readDump(path, snap, reason, error)) {
        std::fprintf(stderr, "selftest: %s\n", error.c_str());
        return 1;
    }
    if (reason != "selftest") {
        std::fprintf(stderr, "selftest: reason mismatch '%s'\n",
                     reason.c_str());
        return 1;
    }
    if (snap.totalWritten != total ||
        snap.records.size() != fr::ringCapacity) {
        std::fprintf(stderr,
                     "selftest: retained %zu of %llu records (want %zu "
                     "of %zu)\n",
                     snap.records.size(),
                     static_cast<unsigned long long>(snap.totalWritten),
                     fr::ringCapacity, total);
        return 1;
    }
    std::uint64_t last = 0;
    std::size_t alpha_count = 0;
    std::size_t beta_count = 0;
    for (const fr::Record &rec : fr::tickOrdered(snap)) {
        if (rec.tick < last) {
            std::fprintf(stderr, "selftest: timeline not tick-sorted\n");
            return 1;
        }
        last = rec.tick;
        alpha_count += rec.module == alpha ? 1 : 0;
        beta_count += rec.module == beta ? 1 : 0;
    }
    // Records 100 .. total-1 survive; 512 of them are beta's.
    constexpr std::size_t want_beta = 512;
    if (alpha_count != fr::ringCapacity - want_beta ||
        beta_count != want_beta) {
        std::fprintf(stderr,
                     "selftest: retained %zu alpha / %zu beta records "
                     "(want %zu / %zu)\n",
                     alpha_count, beta_count, fr::ringCapacity - want_beta,
                     want_beta);
        return 1;
    }
    printDump(path, 5, true, 9);
    std::remove(path.c_str());
    std::printf("selftest ok\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool selftest_only = false;
    std::uint64_t last_k = 50;
    std::uint64_t flow = 0;
    bool flow_set = false;
    std::vector<std::string> paths;
    f4t::bench::CliArgs args(
        "f4t_blackbox", "[--last K] [--flow N] [--selftest] dump.f4tfr...");
    args.flag("--selftest", selftest_only)
        .number("--last", SIZE_MAX, last_k)
        .number("--flow", UINT32_MAX, flow, &flow_set)
        .parse(argc, argv, &paths);
    if (selftest_only) {
        if (!paths.empty())
            args.fail("--selftest reads no dumps");
        return selftest();
    }
    if (paths.empty())
        args.fail("no dump given");
    for (const std::string &path : paths)
        printDump(path, last_k, flow_set, static_cast<std::uint32_t>(flow));
    return 0;
}
