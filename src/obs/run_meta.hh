/**
 * @file
 * Run metadata stamped into every result file the bench binaries write
 * (BENCH_*.json, stage-latency JSON): git revision, build preset, the
 * compile-time feature gates, whether the profiler ran and a
 * wall-clock timestamp, so a result says which build and
 * configuration produced it.
 */

#ifndef F4T_OBS_RUN_META_HH
#define F4T_OBS_RUN_META_HH

#include <cstdio>
#include <string>

namespace f4t::obs
{

struct RunMeta
{
    std::string gitSha = "unknown";
    std::string preset = "unknown";
    bool checksEnabled = false;
    /** F4T_ENABLE_PROFILE compiled in (the gate, not whether it ran). */
    bool profileEnabled = false;
    /** This run actually measured with --profile (scoped timers hot). */
    bool profiled = false;
    /** ISO-8601 UTC wall time of the run ("" when not recorded). */
    std::string timestamp;
};

/** Metadata of the currently running binary (gates are compile-time;
 *  the SHA and preset are baked in at configure time). */
RunMeta currentRunMeta();

/**
 * Emit the metadata as a `"meta": {...}` JSON object member (no
 * trailing comma) at indentation @p indent, for the hand-rolled JSON
 * writers.
 */
void writeMetaJson(std::FILE *out, const RunMeta &meta, int indent);

} // namespace f4t::obs

#endif // F4T_OBS_RUN_META_HH
