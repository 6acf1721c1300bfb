#include "obs/profiler.hh"

#include <algorithm>

namespace f4t::obs
{

namespace
{

constexpr double nsPerUs = 1e3;

double
usOf(std::uint64_t ns)
{
    return static_cast<double>(ns) / nsPerUs;
}

} // namespace

ProfileReport
makeProfileReport(const sim::prof::Snapshot &delta, double wall_seconds)
{
    ProfileReport report;
    report.wallSeconds = wall_seconds;
    report.totalUs = usOf(delta.totalNs());
    report.events = delta.totalCount();

    for (std::size_t c = 0; c < sim::prof::categoryCount; ++c) {
        if (delta.ns[c] == 0 && delta.count[c] == 0)
            continue;
        ProfileRow row;
        row.name = sim::prof::toString(static_cast<sim::prof::Cat>(c));
        row.selfUs = usOf(delta.ns[c]);
        row.count = delta.count[c];
        report.rows.push_back(std::move(row));
    }
    std::sort(report.rows.begin(), report.rows.end(),
              [](const ProfileRow &a, const ProfileRow &b) {
                  return a.selfUs != b.selfUs ? a.selfUs > b.selfUs
                                              : a.name < b.name;
              });
    for (ProfileRow &row : report.rows)
        row.sharePct =
            report.totalUs > 0.0 ? 100.0 * row.selfUs / report.totalUs : 0.0;

    // Coverage: attributed self time against wall time. Self times are
    // disjoint slices of the wall interval, so this stays <= 100%.
    double wall_us = wall_seconds * 1e6;
    report.coveragePct =
        wall_us > 0.0 ? 100.0 * report.totalUs / wall_us : 0.0;
    return report;
}

void
printProfileTable(std::FILE *out, const ProfileReport &report)
{
    std::fprintf(out,
                 "  profile: %.3f ms wall, %.3f ms attributed (%.1f%% "
                 "coverage), %llu scopes\n",
                 report.wallSeconds * 1e3, report.totalUs / 1e3,
                 report.coveragePct,
                 static_cast<unsigned long long>(report.events));
    std::fprintf(out, "    %-18s %12s %7s %12s %10s\n", "category",
                 "self_us", "share", "count", "ns/scope");
    for (const ProfileRow &row : report.rows) {
        double per_scope =
            row.count > 0
                ? row.selfUs * nsPerUs / static_cast<double>(row.count)
                : 0.0;
        std::fprintf(out, "    %-18s %12.1f %6.1f%% %12llu %10.1f\n",
                     row.name.c_str(), row.selfUs, row.sharePct,
                     static_cast<unsigned long long>(row.count), per_scope);
    }
}

void
writeProfileJson(std::FILE *out, const ProfileReport &report, int indent)
{
    std::fprintf(out,
                 "%*s\"profile\": {\n"
                 "%*s  \"wall_seconds\": %.6f,\n"
                 "%*s  \"total_us\": %.1f,\n"
                 "%*s  \"coverage_pct\": %.1f,\n"
                 "%*s  \"categories\": {",
                 indent, "", indent, "", report.wallSeconds, indent, "",
                 report.totalUs, indent, "", report.coveragePct, indent,
                 "");
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
        const ProfileRow &row = report.rows[i];
        std::fprintf(out,
                     "%s\n"
                     "%*s    \"%s\": { \"self_us\": %.1f, \"count\": %llu, "
                     "\"share_pct\": %.1f }",
                     i == 0 ? "" : ",", indent, "", row.name.c_str(),
                     row.selfUs, static_cast<unsigned long long>(row.count),
                     row.sharePct);
    }
    std::fprintf(out, "\n%*s  }\n%*s}", indent, "", indent, "");
}

} // namespace f4t::obs
