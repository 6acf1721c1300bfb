#include "load/trace.hh"

#include <cinttypes>
#include <fstream>
#include <string_view>

namespace f4t::load
{

std::uint64_t
traceFingerprint(const std::vector<TraceRecord> &records)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(records.size());
    for (const TraceRecord &r : records) {
        mix(r.timePs);
        mix(r.client);
        mix(r.conn);
        mix(static_cast<std::uint64_t>(r.op));
        mix(r.valueBytes);
    }
    return h;
}

TraceWriter::~TraceWriter()
{
    close();
}

bool
TraceWriter::open(const std::string &path, const std::string &scenario,
                  std::uint64_t seed)
{
    close();
    out_ = std::fopen(path.c_str(), "w");
    failed_ = out_ == nullptr;
    records_ = 0;
    if (failed_)
        return false;
    std::fprintf(out_, "# f4t-flows v1 scenario=%s seed=%" PRIu64 "\n",
                 scenario.c_str(), seed);
    std::fprintf(out_, "# time_ps client conn op value_bytes\n");
    return true;
}

void
TraceWriter::append(const TraceRecord &record)
{
    if (out_ == nullptr)
        return;
    if (std::fprintf(out_, "%" PRIu64 " %" PRIu32 " %" PRIu32 " %s %" PRIu32
                           "\n",
                     record.timePs, record.client, record.conn,
                     record.op == apps::KvOp::get ? "GET" : "SET",
                     record.valueBytes) < 0) {
        failed_ = true;
    }
    ++records_;
}

bool
TraceWriter::close()
{
    if (out_ == nullptr)
        return !failed_;
    if (std::fclose(out_) != 0)
        failed_ = true;
    out_ = nullptr;
    return !failed_;
}

namespace
{

/** Longest line a trace may hold, its newline excluded. A record takes
 *  at most 58 bytes. */
constexpr std::size_t maxLineBytes = 255;

/** The columns of a record line, in order. */
constexpr const char *columns[] = {"time_ps", "client", "conn", "op",
                                   "value_bytes"};

/** @p line split at runs of spaces and tabs. */
std::vector<std::string_view>
splitFields(std::string_view line)
{
    std::vector<std::string_view> fields;
    std::size_t pos = 0;
    while (true) {
        pos = line.find_first_not_of(" \t", pos);
        if (pos == std::string_view::npos)
            return fields;
        std::size_t end = line.find_first_of(" \t", pos);
        if (end == std::string_view::npos)
            end = line.size();
        fields.push_back(line.substr(pos, end - pos));
        pos = end;
    }
}

/** @p text as a plain decimal — digits only, no sign, space or
 *  suffix — no larger than @p max. */
bool
parseDecimal(std::string_view text, std::uint64_t max, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (max - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

/** The "# f4t-flows v1 scenario=NAME seed=N" header, into @p out. */
bool
parseHeader(const std::vector<std::string_view> &fields, TraceFile &out)
{
    constexpr std::string_view scenario = "scenario=";
    constexpr std::string_view seed = "seed=";
    if (fields.size() != 5 || fields[0] != "#" ||
        fields[1] != "f4t-flows" || fields[2] != "v1" ||
        !fields[3].starts_with(scenario) ||
        fields[3].size() == scenario.size() ||
        !fields[4].starts_with(seed) ||
        !parseDecimal(fields[4].substr(seed.size()), UINT64_MAX, out.seed))
        return false;
    out.scenario = fields[3].substr(scenario.size());
    return true;
}

} // namespace

std::optional<TraceFile>
readTrace(const std::string &path, std::string *error)
{
    std::uint64_t line_no = 0;
    auto fail = [&](const std::string &message) -> std::optional<TraceFile> {
        if (error != nullptr)
            *error = path + ":" + std::to_string(line_no) + ": " + message;
        return std::nullopt;
    };

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = path + ": cannot open";
        return std::nullopt;
    }

    const std::string header_hint =
        "expected the header '# f4t-flows v1 scenario=NAME seed=N'";
    TraceFile out;
    std::string line;
    for (line_no = 1; std::getline(in, line); ++line_no) {
        if (line.size() > maxLineBytes)
            return fail("line is longer than " +
                        std::to_string(maxLineBytes) + " bytes");
        std::vector<std::string_view> fields = splitFields(line);
        if (line_no == 1) {
            if (!parseHeader(fields, out))
                return fail(header_hint);
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        if (fields.size() > 5)
            return fail("unexpected text after value_bytes: '" +
                        std::string(fields[5]) + "'");
        if (fields.size() < 5)
            return fail("expected 5 fields (time_ps client conn op "
                        "value_bytes), found " +
                        std::to_string(fields.size()));

        std::uint64_t values[5] = {};
        for (std::size_t i : {0, 1, 2, 4}) {
            std::uint64_t max = i == 0 ? UINT64_MAX : UINT32_MAX;
            if (!parseDecimal(fields[i], max, values[i]))
                return fail(std::string(columns[i]) + " '" +
                            std::string(fields[i]) +
                            "' is not a decimal number in [0, " +
                            std::to_string(max) + "]");
        }
        TraceRecord r;
        r.timePs = values[0];
        r.client = static_cast<std::uint32_t>(values[1]);
        r.conn = static_cast<std::uint32_t>(values[2]);
        r.valueBytes = static_cast<std::uint32_t>(values[4]);
        if (fields[3] == "GET")
            r.op = apps::KvOp::get;
        else if (fields[3] == "SET")
            r.op = apps::KvOp::set;
        else
            return fail("op '" + std::string(fields[3]) +
                        "' is not GET or SET");
        if (!out.records.empty() && r.timePs < out.records.back().timePs)
            return fail("time_ps went backwards");
        out.records.push_back(r);
    }
    if (in.bad())
        return fail("read error");
    if (line_no == 1)
        return fail(header_hint);
    return out;
}

} // namespace f4t::load
