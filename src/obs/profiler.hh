/**
 * @file
 * Turns prof::Snapshot deltas from the wall-clock self-profiler into
 * the bench artefacts: a human-readable per-category cost table, a
 * `"profile": {...}` JSON member merged into the schema-5 BENCH_*.json
 * scenario objects, and the parallel executor's per-worker
 * busy/idle/barrier breakdown with window occupancy.
 */

#ifndef F4T_OBS_PROFILER_HH
#define F4T_OBS_PROFILER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/parallel.hh"
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

/** One executor thread's wall-clock breakdown (coordinator first). */
struct ProfileWorker
{
    double busyUs = 0.0;
    double idleUs = 0.0;
    double barrierUs = 0.0;
};

/**
 * A rendered profile over one measured interval: categories sorted by
 * self time (descending, zero rows dropped), total attributed time,
 * and coverage — attributed time as a percentage of wall time times
 * the threads that did the work. Worker rows and occupancy are
 * present only when attachWorkerProfiles() was called (parallel runs).
 */
struct ProfileReport
{
    double wallSeconds = 0.0;
    unsigned threads = 1;
    double totalUs = 0.0;
    double coveragePct = 0.0;
    std::uint64_t events = 0; ///< scope activations summed over rows
    std::vector<ProfileRow> rows;
    std::vector<ProfileWorker> workers;
    /** Mean busy share across executor threads (busy / wall). */
    double occupancyPct = 0.0;
};

/**
 * Build a report from a snapshot delta over @p wall_seconds. The
 * thread count is the number of threads that closed scopes in
 * @p delta (at least one), so coverage stays <= 100% at any worker
 * count.
 */
ProfileReport makeProfileReport(const sim::prof::Snapshot &delta,
                                double wall_seconds);

/**
 * Attach per-worker rows from two executor profile snapshots taken
 * around the measured interval (element-wise delta) and derive window
 * occupancy from them against the report's wall time.
 */
void attachWorkerProfiles(ProfileReport &report,
                          const std::vector<sim::WorkerProfile> &before,
                          const std::vector<sim::WorkerProfile> &after);

/** Print the per-category table (and worker rows when present). */
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
