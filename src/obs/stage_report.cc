#include "obs/stage_report.hh"

#include "obs/run_meta.hh"

namespace f4t::obs
{

namespace
{

Stage
stageAt(std::size_t i)
{
    return static_cast<Stage>(i);
}

} // namespace

void
printStageTable(std::FILE *out, Spans &spans)
{
    std::fprintf(out,
                 "  %-10s %9s %9s %9s %9s %9s %9s %9s\n"
                 "  %-10s %9s %9s %9s %9s %9s %9s %9s\n",
                 "stage", "samples", "queue", "queue", "service", "service",
                 "total", "total", "", "", "p50 us", "p99 us", "p50 us",
                 "p99 us", "p50 us", "p99 us");
    for (std::size_t i = 0; i < numStages; ++i) {
        Stage s = stageAt(i);
        sim::Histogram &total = spans.stageTotal(s);
        if (total.count() == 0)
            continue;
        sim::Histogram &queue = spans.stageQueue(s);
        sim::Histogram &service = spans.stageService(s);
        std::fprintf(out,
                     "  %-10s %9llu %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                     stageName(s),
                     static_cast<unsigned long long>(total.count()),
                     queue.percentile(50.0), queue.percentile(99.0),
                     service.percentile(50.0), service.percentile(99.0),
                     total.percentile(50.0), total.percentile(99.0));
    }
    sim::Histogram &e2e = spans.e2e();
    std::fprintf(out,
                 "  %-10s %9llu %29s %19s %9.3f %9.3f\n", "e2e",
                 static_cast<unsigned long long>(e2e.count()), "", "",
                 e2e.percentile(50.0), e2e.percentile(99.0));
    std::fprintf(out,
                 "  requests: %llu started, %llu completed, %llu aborted"
                 " | anomalies: %llu dup-arrivals, %llu merged,"
                 " %llu wire-reentries, %llu abandoned\n",
                 static_cast<unsigned long long>(spans.started()),
                 static_cast<unsigned long long>(spans.completed()),
                 static_cast<unsigned long long>(spans.aborted()),
                 static_cast<unsigned long long>(spans.duplicateArrivals()),
                 static_cast<unsigned long long>(spans.merged()),
                 static_cast<unsigned long long>(spans.wireReentries()),
                 static_cast<unsigned long long>(spans.abandonedSpans()));
}

void
printSlowestCriticalPath(std::FILE *out, const Spans &spans)
{
    const Request *slowest = spans.slowest();
    if (!slowest) {
        std::fprintf(out, "  (no completed requests)\n");
        return;
    }
    std::fprintf(out, "%s", spans.criticalPath(*slowest).c_str());
}

namespace
{

void
writeDist(std::FILE *f, const char *key, sim::Histogram &h, bool last)
{
    std::fprintf(f,
                 "      \"%s\": {\"count\": %llu, \"mean_us\": %.6f, "
                 "\"p50_us\": %.6f, \"p99_us\": %.6f, \"max_us\": %.6f}%s\n",
                 key, static_cast<unsigned long long>(h.count()), h.mean(),
                 h.percentile(50.0), h.percentile(99.0), h.max(),
                 last ? "" : ",");
}

} // namespace

bool
writeStageJson(const std::string &path, Spans &spans,
               const RunMeta &meta)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "stage_report: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"kind\": \"stage_latency\",\n  \"schema\": 1,\n");
    writeMetaJson(f, meta, 2);
    std::fprintf(f, ",\n  \"stages\": [\n");
    bool first = true;
    for (std::size_t i = 0; i < numStages; ++i) {
        Stage s = stageAt(i);
        if (spans.stageTotal(s).count() == 0)
            continue;
        std::fprintf(f, "%s    {\n      \"name\": \"%s\",\n",
                     first ? "" : ",\n", stageName(s));
        first = false;
        writeDist(f, "total", spans.stageTotal(s), false);
        writeDist(f, "queue", spans.stageQueue(s), false);
        writeDist(f, "service", spans.stageService(s), true);
        std::fprintf(f, "    }");
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"e2e\": {\n");
    writeDist(f, "total", spans.e2e(), true);
    std::fprintf(f, "  },\n");
    std::fprintf(
        f,
        "  \"counters\": {\n"
        "    \"requests_started\": %llu,\n"
        "    \"requests_completed\": %llu,\n"
        "    \"requests_aborted\": %llu,\n"
        "    \"duplicate_arrivals\": %llu,\n"
        "    \"merged_requests\": %llu,\n"
        "    \"wire_reentries\": %llu,\n"
        "    \"abandoned_spans\": %llu\n"
        "  }\n}\n",
        static_cast<unsigned long long>(spans.started()),
        static_cast<unsigned long long>(spans.completed()),
        static_cast<unsigned long long>(spans.aborted()),
        static_cast<unsigned long long>(spans.duplicateArrivals()),
        static_cast<unsigned long long>(spans.merged()),
        static_cast<unsigned long long>(spans.wireReentries()),
        static_cast<unsigned long long>(spans.abandonedSpans()));
    bool written = !std::ferror(f);
    if (std::fclose(f) != 0 || !written) {
        std::fprintf(stderr, "stage_report: cannot write '%s'\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace f4t::obs
