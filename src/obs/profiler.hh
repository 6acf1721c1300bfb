/**
 * @file
 * Turns prof::Snapshot deltas from the wall-clock self-profiler into
 * the bench artefacts: a human-readable per-category cost table and a
 * `"profile": {...}` JSON member merged into the schema-5 BENCH_*.json
 * scenario objects.
 */

#ifndef F4T_OBS_PROFILER_HH
#define F4T_OBS_PROFILER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/profile_scope.hh"

namespace f4t::obs
{

/** One per-category row of a profile report. */
struct ProfileRow
{
    std::string name;     ///< prof::toString category name
    double selfUs = 0.0;  ///< attributed self time
    std::uint64_t count = 0;
    double sharePct = 0.0; ///< of the report's attributed total
};

/**
 * A rendered profile over one measured interval: categories sorted by
 * self time (descending, zero rows dropped), total attributed time,
 * and coverage — attributed time as a percentage of wall time times
 * the threads that did the work.
 */
struct ProfileReport
{
    double wallSeconds = 0.0;
    unsigned threads = 1;
    double totalUs = 0.0;
    double coveragePct = 0.0;
    std::uint64_t events = 0; ///< scope activations summed over rows
    std::vector<ProfileRow> rows;
};

/**
 * Build a report from a snapshot delta over @p wall_seconds. The
 * thread count is the number of threads that closed scopes in
 * @p delta (at least one), so coverage stays <= 100% however many
 * threads ran simulations.
 */
ProfileReport makeProfileReport(const sim::prof::Snapshot &delta,
                                double wall_seconds);

/** Print the per-category table. */
void printProfileTable(std::FILE *out, const ProfileReport &report);

/**
 * Emit the report as a `"profile": {...}` JSON object member (no
 * trailing comma) at indentation @p indent, matching the hand-rolled
 * writers in bench/.
 */
void writeProfileJson(std::FILE *out, const ProfileReport &report,
                      int indent);

} // namespace f4t::obs

#endif // F4T_OBS_PROFILER_HH
