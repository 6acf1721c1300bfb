/**
 * @file
 * Flow-trace file format for replayable load scenarios.
 *
 * A generated scenario records one line per dispatched request; the
 * reader turns the file back into records the open-loop client can
 * replay against any world, reproducing the original run's request
 * stream exactly (the round-trip test asserts identical fingerprints
 * and per-flow byte counts). The format follows the flows/-style
 * line-per-request trace harnesses used by FPGA TCP-stack testbeds:
 * a commented header carrying scenario identity, then fixed
 * whitespace-separated columns:
 *
 *   # f4t-flows v1 scenario=<name> seed=<u64>
 *   # time_ps client conn op value_bytes
 *   12345 0 2 GET 2048
 *   12400 1 0 SET 512
 *
 * time_ps is the simulated dispatch tick (1 tick = 1 ps,
 * the simulator's native resolution, so replay is exact); client and conn identify
 * the issuing generator and its connection slot; op is GET or SET;
 * value_bytes is the value payload size (response payload for GET,
 * request payload for SET). Lines are emitted in dispatch order, so
 * time_ps is non-decreasing.
 *
 * The reader is strict. The header must be line 1. Every other line is
 * a comment (#), empty, or a record of exactly five blank-separated
 * fields: time_ps a plain decimal u64; client, conn and value_bytes
 * plain decimal u32s (no sign, no suffix); op GET or SET. A line
 * longer than 255 bytes is an error, and every error names its line.
 */

#ifndef F4T_LOAD_TRACE_HH
#define F4T_LOAD_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/kv.hh"

namespace f4t::load
{

struct TraceRecord
{
    std::uint64_t timePs = 0;
    std::uint32_t client = 0;
    std::uint32_t conn = 0;
    apps::KvOp op = apps::KvOp::get;
    std::uint32_t valueBytes = 0;

    bool operator==(const TraceRecord &) const = default;
};

/** Order-sensitive FNV-1a digest of a record sequence. */
std::uint64_t traceFingerprint(const std::vector<TraceRecord> &records);

class TraceWriter
{
  public:
    TraceWriter() = default;
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Open @p path and write the header. False on I/O failure. */
    bool open(const std::string &path, const std::string &scenario,
              std::uint64_t seed);

    void append(const TraceRecord &record);

    /** Flush and close; returns false if any write failed. */
    bool close();

    bool ok() const { return out_ != nullptr && !failed_; }
    std::uint64_t recordsWritten() const { return records_; }

  private:
    std::FILE *out_ = nullptr;
    bool failed_ = false;
    std::uint64_t records_ = 0;
};

struct TraceFile
{
    std::string scenario;
    std::uint64_t seed = 0;
    std::vector<TraceRecord> records;
};

/** Parse a trace file; nullopt on malformed input, with *error set to
 *  "<path>:<line>: <problem>" (or "<path>: cannot open"). */
std::optional<TraceFile> readTrace(const std::string &path,
                                   std::string *error = nullptr);

} // namespace f4t::load

#endif // F4T_LOAD_TRACE_HH
