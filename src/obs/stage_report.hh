/**
 * @file
 * Turns a CausalTracer's per-stage histograms into the paper-style
 * breakdown artefacts: a human-readable table (Fig. 11/12 companion),
 * a per-stage latency JSON file (CI publishes it as an artifact), and a
 * critical-path dump of the slowest completed request.
 */

#ifndef F4T_OBS_STAGE_REPORT_HH
#define F4T_OBS_STAGE_REPORT_HH

#include <cstdio>
#include <string>

#include "sim/causal_trace.hh"

namespace f4t::obs
{

struct RunMeta;

/**
 * Print the per-stage latency table: one row per stage with sample
 * count, queueing / service / total p50 and p99 (µs), then the
 * end-to-end row and the tracer's health counters (out-of-order
 * closes, wire re-entries, coalesced merges, overflow drops).
 */
void printStageTable(std::FILE *out, sim::ctrace::CausalTracer &tracer);

/** Print the critical path of the slowest completed request. */
void printSlowestCriticalPath(std::FILE *out,
                              sim::ctrace::CausalTracer &tracer);

/**
 * Write the per-stage latency JSON (`schema: 1`, kind "stage_latency"):
 * run metadata, one object per stage with count/mean/p50/p99 for the
 * total/queue/service splits, the e2e distribution, and the health
 * counters. @return false (with a perror-style message on stderr) when
 * the file cannot be written.
 */
bool writeStageJson(const std::string &path,
                    sim::ctrace::CausalTracer &tracer,
                    const RunMeta &meta);

} // namespace f4t::obs

#endif // F4T_OBS_STAGE_REPORT_HH
