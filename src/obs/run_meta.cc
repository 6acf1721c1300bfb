#include "obs/run_meta.hh"

#include "sim/check.hh"
#include "sim/profile_scope.hh"

#include <ctime>

// F4T_GIT_SHA / F4T_PRESET_NAME are injected for this translation unit
// only (see src/obs/CMakeLists.txt) so a new commit rebuilds one file,
// not the whole library.
#ifndef F4T_GIT_SHA
#define F4T_GIT_SHA "unknown"
#endif
#ifndef F4T_PRESET_NAME
#define F4T_PRESET_NAME "unknown"
#endif

namespace f4t::obs
{

RunMeta
currentRunMeta()
{
    RunMeta meta;
    meta.gitSha = F4T_GIT_SHA;
    meta.preset = F4T_PRESET_NAME;
    meta.checksEnabled = sim::checksEnabled;
    meta.profileEnabled = sim::prof::compiledIn;
    meta.profiled = sim::prof::enabled();

    std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc)) {
        char buf[32];
        if (std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc))
            meta.timestamp = buf;
    }
    return meta;
}

void
writeMetaJson(std::FILE *out, const RunMeta &meta, int indent)
{
    std::fprintf(out,
                 "%*s\"meta\": {\n"
                 "%*s  \"git_sha\": \"%s\",\n"
                 "%*s  \"preset\": \"%s\",\n"
                 "%*s  \"checks_enabled\": %s,\n"
                 "%*s  \"profile_enabled\": %s,\n"
                 "%*s  \"profiled\": %s,\n"
                 "%*s  \"timestamp\": \"%s\"\n"
                 "%*s}",
                 indent, "", indent, "", meta.gitSha.c_str(), indent, "",
                 meta.preset.c_str(), indent, "",
                 meta.checksEnabled ? "true" : "false", indent, "",
                 meta.profileEnabled ? "true" : "false", indent, "",
                 meta.profiled ? "true" : "false", indent, "",
                 meta.timestamp.c_str(), indent, "");
}

} // namespace f4t::obs
