/**
 * @file
 * Turns the span trees of a capture (obs/spans.hh) into the
 * paper-style breakdown artefacts: a human-readable table (Fig. 11/12
 * companion), a per-stage latency JSON file (CI publishes it as an
 * artifact), and a critical-path dump of the slowest request.
 */

#ifndef F4T_OBS_STAGE_REPORT_HH
#define F4T_OBS_STAGE_REPORT_HH

#include <cstdio>
#include <string>

#include "obs/spans.hh"

namespace f4t::obs
{

struct RunMeta;

/**
 * Print the per-stage latency table: one row per stage with sample
 * count, queueing / service / total p50 and p99 (µs), then the
 * end-to-end row and the request counters (started, completed,
 * aborted, duplicate arrivals, merged requests, wire re-entries,
 * abandoned spans).
 */
void printStageTable(std::FILE *out, Spans &spans);

/** Print the critical path of the slowest sampled request: its e2e
 *  latency is the e2e histogram's maximum. */
void printSlowestCriticalPath(std::FILE *out, const Spans &spans);

/**
 * Write the per-stage latency JSON (`schema: 1`, kind "stage_latency"):
 * run metadata, one object per stage with count/mean/p50/p99 for the
 * total/queue/service splits, the e2e distribution, and the counters.
 * @return false (with a message on stderr) when the file cannot be
 * written completely.
 */
bool writeStageJson(const std::string &path, Spans &spans,
                    const RunMeta &meta);

} // namespace f4t::obs

#endif // F4T_OBS_STAGE_REPORT_HH
