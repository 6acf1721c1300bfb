#include "flight_recorder.hh"

#include "sim/logging.hh"
#include "sim/probe.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

namespace f4t::sim::fr
{

namespace
{

/* Dump format: 8-byte magic, u32 version, then the length-prefixed
 * reason string, the module table, and the ring (u64 records written,
 * u32 records retained, the retained records oldest first). Native
 * endianness — a dump is read on the machine that wrote it. Version 1
 * held one ring per thread. */
constexpr unsigned char dumpMagic[8] = {'F', '4', 'T', 'F',
                                        'R', '\n', 0x1a, 0x00};
constexpr std::uint32_t dumpVersion = 2;

constexpr std::size_t maxModules = 1024;
constexpr std::size_t maxModuleName = 48;

/* The module table, written only by the simulation thread; the count
 * is atomic so that a dump from another thread reads only published
 * names. Slot 0, "kernel", has no stored name, so the names are all
 * zeros and add nothing to the size of a binary's file. */
constinit std::atomic<std::uint32_t> moduleCount{1};
constinit char moduleNames[maxModules][maxModuleName] = {};

/* One dump per failure: panic and the SIGABRT it raises must not both
 * write. */
constinit std::atomic<bool> dumpedOnFailure{false};
std::uint32_t nextDumpSeq = 0;

static_assert(std::is_trivially_destructible_v<detail::Ring>,
              "exit-time and signal-time dumps read the ring after "
              "static destruction");

std::string_view
moduleNameAt(std::uint32_t m)
{
    const char *name = m == 0 ? "kernel" : moduleNames[m];
    return {name, ::strnlen(name, maxModuleName)};
}

bool
writeAll(int fd, const void *buf, std::size_t len)
{
    const char *p = static_cast<const char *>(buf);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeU32(int fd, std::uint32_t v)
{
    return writeAll(fd, &v, sizeof v);
}

bool
writeU64(int fd, std::uint64_t v)
{
    return writeAll(fd, &v, sizeof v);
}

/* Async-signal-safe decimal formatter (signal path cannot snprintf). */
std::size_t
formatU64(char *out, std::uint64_t v)
{
    char tmp[24];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    out[n] = '\0';
    return n;
}

/* Append src to dst at offset, bounded; returns new offset. */
std::size_t
appendStr(char *dst, std::size_t off, std::size_t cap, const char *src)
{
    while (*src != '\0' && off + 1 < cap)
        dst[off++] = *src++;
    dst[off] = '\0';
    return off;
}

bool
writeHeader(int fd, const char *reason, std::size_t reason_len)
{
    return writeAll(fd, dumpMagic, sizeof dumpMagic) &&
           writeU32(fd, dumpVersion) &&
           writeU32(fd, static_cast<std::uint32_t>(reason_len)) &&
           writeAll(fd, reason, reason_len);
}

/*
 * Write the live ring straight from the static tables. Every call in
 * here is async-signal-safe (write/strlen/atomic loads over fixed
 * storage), so the fatal-signal handler can use it directly.
 */
bool
writeLiveRawFd(int fd, const char *reason)
{
    if (!writeHeader(fd, reason, std::strlen(reason)))
        return false;
    std::uint32_t count = moduleCount.load(std::memory_order_acquire);
    if (!writeU32(fd, count))
        return false;
    for (std::uint32_t m = 0; m < count; ++m) {
        std::string_view name = moduleNameAt(m);
        if (!writeU32(fd, static_cast<std::uint32_t>(name.size())) ||
            !writeAll(fd, name.data(), name.size())) {
            return false;
        }
    }
    std::uint64_t total = detail::ring.head.load(std::memory_order_relaxed);
    std::uint64_t start = total > ringCapacity ? total - ringCapacity : 0;
    if (!writeU64(fd, total) ||
        !writeU32(fd, static_cast<std::uint32_t>(total - start))) {
        return false;
    }
    for (std::uint64_t i = start; i < total; ++i) {
        const Record &rec = detail::ring.slots[i & (ringCapacity - 1)];
        if (!writeAll(fd, &rec, sizeof rec))
            return false;
    }
    return true;
}

bool
writeSnapshotFd(int fd, const Snapshot &snap, const std::string &reason)
{
    if (!writeHeader(fd, reason.data(), reason.size()) ||
        !writeU32(fd, static_cast<std::uint32_t>(snap.modules.size()))) {
        return false;
    }
    for (const std::string &name : snap.modules) {
        if (!writeU32(fd, static_cast<std::uint32_t>(name.size())) ||
            !writeAll(fd, name.data(), name.size())) {
            return false;
        }
    }
    return writeU64(fd, snap.totalWritten) &&
           writeU32(fd, static_cast<std::uint32_t>(snap.records.size())) &&
           (snap.records.empty() ||
            writeAll(fd, snap.records.data(),
                     snap.records.size() * sizeof(Record)));
}

const char *
dumpDir()
{
    const char *dir = std::getenv("F4T_DUMP_DIR");
    return dir != nullptr && dir[0] != '\0' ? dir : ".";
}

/*
 * The shared failure funnel: first caller wins, everything here is
 * async-signal-safe. Prints the dump path, or that it could not be
 * written, so CI logs point straight at the artifact or its absence.
 */
void
dumpOnFailureC(const char *reason)
{
    bool expected = false;
    if (!dumpedOnFailure.compare_exchange_strong(expected, true))
        return;
    char path[512];
    std::size_t off = appendStr(path, 0, sizeof path, dumpDir());
    off = appendStr(path, off, sizeof path, "/f4t-crash-");
    char pid[24];
    formatU64(pid, static_cast<std::uint64_t>(::getpid()));
    off = appendStr(path, off, sizeof path, pid);
    appendStr(path, off, sizeof path, ".f4tfr");
    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    bool ok = fd >= 0 && writeLiveRawFd(fd, reason);
    if (fd >= 0)
        ::close(fd);
    const char *what = ok ? "flight recorder: dumped "
                          : "flight recorder: cannot write ";
    (void)!::write(2, what, std::strlen(what));
    (void)!::write(2, path, std::strlen(path));
    (void)!::write(2, "\n", 1);
}

void
fatalSignalHandler(int sig)
{
    const char *name = "fatal signal";
    switch (sig) {
    case SIGSEGV: name = "fatal signal SIGSEGV"; break;
    case SIGABRT: name = "fatal signal SIGABRT"; break;
    case SIGBUS: name = "fatal signal SIGBUS"; break;
    case SIGFPE: name = "fatal signal SIGFPE"; break;
    default: break;
    }
    dumpOnFailureC(name);
    /* SA_RESETHAND restored the default disposition; re-deliver. */
    ::raise(sig);
}

// --- watchdog -----------------------------------------------------------

struct Watchdog
{
    std::mutex mutex;
    std::condition_variable cv;
    bool threadStarted = false;
    bool armed = false;
    std::uint64_t generation = 0;
    double timeoutSecs = 0;
    std::function<void()> hook;
    std::atomic<bool> fired{false};
};

Watchdog &
watchdog()
{
    static Watchdog *dog = new Watchdog;
    return *dog;
}

void
watchdogLoop()
{
    Watchdog &dog = watchdog();
    std::unique_lock<std::mutex> lock(dog.mutex);
    for (;;) {
        dog.cv.wait(lock, [&] { return dog.armed; });
        std::uint64_t my_generation = dog.generation;
        double timeout = dog.timeoutSecs;
        auto poll = std::chrono::duration<double>(
            std::min(timeout / 4.0, 0.25));
        std::uint64_t last_beat =
            detail::heartbeat.load(std::memory_order_relaxed);
        auto last_change = std::chrono::steady_clock::now();
        while (dog.armed && dog.generation == my_generation) {
            dog.cv.wait_for(lock, poll);
            if (!dog.armed || dog.generation != my_generation)
                break;
            std::uint64_t beat_now =
                detail::heartbeat.load(std::memory_order_relaxed);
            auto now = std::chrono::steady_clock::now();
            if (beat_now != last_beat) {
                last_beat = beat_now;
                last_change = now;
                continue;
            }
            if (std::chrono::duration<double>(now - last_change).count() <
                timeout) {
                continue;
            }
            dog.armed = false;
            dog.fired.store(true, std::memory_order_release);
            std::function<void()> hook = dog.hook;
            lock.unlock();
            if (hook) {
                hook();
            } else {
                char reason[128];
                std::size_t off = appendStr(
                    reason, 0, sizeof reason,
                    "watchdog: no event progress for ");
                char secs[24];
                formatU64(secs,
                          static_cast<std::uint64_t>(timeout + 0.5));
                off = appendStr(reason, off, sizeof reason, secs);
                appendStr(reason, off, sizeof reason, "s");
                dumpOnFailureC(reason);
                std::abort();
            }
            lock.lock();
            break;
        }
    }
}

/* Fatal-signal handlers come up with the process, not with any
 * particular harness, so release binaries are covered too. */
struct SignalInit
{
    SignalInit() { installSignalHandlers(); }
};
SignalInit signalInit;

} // namespace

namespace detail
{

constinit Ring ring;
constinit std::atomic<std::uint64_t> heartbeat{0};

} // namespace detail

std::uint16_t
internModule(std::string_view name)
{
    std::uint32_t count = moduleCount.load(std::memory_order_relaxed);
    name = name.substr(0, maxModuleName - 1);
    for (std::uint32_t m = 0; m < count; ++m) {
        if (moduleNameAt(m) == name)
            return static_cast<std::uint16_t>(m);
    }
    if (count >= maxModules)
        return 0;
    std::memcpy(moduleNames[count], name.data(), name.size());
    moduleNames[count][name.size()] = '\0';
    moduleCount.store(count + 1, std::memory_order_release);
    return static_cast<std::uint16_t>(count);
}

std::string
moduleName(std::uint16_t id)
{
    if (id >= moduleCount.load(std::memory_order_acquire))
        return {};
    return std::string(moduleNameAt(id));
}

Snapshot
snapshot()
{
    Snapshot snap;
    std::uint32_t count = moduleCount.load(std::memory_order_acquire);
    snap.modules.reserve(count);
    for (std::uint32_t m = 0; m < count; ++m)
        snap.modules.emplace_back(moduleNameAt(m));
    snap.totalWritten = detail::ring.head.load(std::memory_order_relaxed);
    std::uint64_t start = snap.totalWritten > ringCapacity
                              ? snap.totalWritten - ringCapacity
                              : 0;
    snap.records.reserve(static_cast<std::size_t>(snap.totalWritten - start));
    for (std::uint64_t i = start; i < snap.totalWritten; ++i)
        snap.records.push_back(detail::ring.slots[i & (ringCapacity - 1)]);
    return snap;
}

void
clear()
{
    detail::ring.head.store(0, std::memory_order_relaxed);
}

bool
writeSnapshot(const Snapshot &snap, const std::string &path,
              const std::string &reason)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = writeSnapshotFd(fd, snap, reason);
    ::close(fd);
    return ok;
}

bool
dumpToFile(const std::string &path, const std::string &reason)
{
    return writeSnapshot(snapshot(), path, reason);
}

std::string
dumpNow(const std::string &reason)
{
    std::string path = std::string(dumpDir()) + "/f4t-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(nextDumpSeq++) + ".f4tfr";
    return dumpToFile(path, reason) ? path : std::string();
}

void
dumpOnFailure(const std::string &reason)
{
    dumpOnFailureC(reason.c_str());
}

void
installSignalHandlers()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = fatalSignalHandler;
    /* One shot: the handler re-raises into the restored default
     * disposition so exit codes and core dumps look untouched. */
    action.sa_flags = SA_RESETHAND | SA_NODEFER;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGSEGV, &action, nullptr);
    ::sigaction(SIGABRT, &action, nullptr);
    ::sigaction(SIGBUS, &action, nullptr);
    ::sigaction(SIGFPE, &action, nullptr);
}

void
armWatchdog(double seconds, std::function<void()> on_stall)
{
    if (seconds <= 0)
        return;
    Watchdog &dog = watchdog();
    std::lock_guard<std::mutex> lock(dog.mutex);
    if (!dog.threadStarted) {
        dog.threadStarted = true;
        std::thread(watchdogLoop).detach();
    }
    dog.armed = true;
    ++dog.generation;
    dog.timeoutSecs = seconds;
    dog.hook = std::move(on_stall);
    dog.fired.store(false, std::memory_order_relaxed);
    /* The arm itself counts as progress. */
    beat();
    dog.cv.notify_all();
}

void
disarmWatchdog()
{
    Watchdog &dog = watchdog();
    std::lock_guard<std::mutex> lock(dog.mutex);
    dog.armed = false;
    ++dog.generation;
    dog.hook = nullptr;
    dog.cv.notify_all();
}

bool
watchdogFired()
{
    return watchdog().fired.load(std::memory_order_acquire);
}

double
defaultWatchdogSeconds()
{
    static double secs = [] {
        const char *env = std::getenv("F4T_WATCHDOG_SECS");
        if (env == nullptr || env[0] == '\0')
            return 120.0;
        // Digits with at most one decimal point: no sign, exponent,
        // hex, inf or nan, and nothing after the number.
        bool digit = false;
        bool point = false;
        bool plain = true;
        for (const char *p = env; *p != '\0' && plain; ++p) {
            if (*p >= '0' && *p <= '9')
                digit = true;
            else if (*p == '.' && !point)
                point = true;
            else
                plain = false;
        }
        double value = plain && digit ? std::strtod(env, nullptr) : -1.0;
        if (!std::isfinite(value) || value < 0.0) {
            f4t_fatal("F4T_WATCHDOG_SECS='%s' is not a finite, "
                      "non-negative number of seconds",
                      env);
        }
        return value;
    }();
    return secs;
}

// --- decoder ------------------------------------------------------------

namespace
{

bool
readExact(std::FILE *f, void *buf, std::size_t len)
{
    return std::fread(buf, 1, len, f) == len;
}

bool
readU32(std::FILE *f, std::uint32_t &v)
{
    return readExact(f, &v, sizeof v);
}

bool
readU64(std::FILE *f, std::uint64_t &v)
{
    return readExact(f, &v, sizeof v);
}

bool
readString(std::FILE *f, std::string &out, std::uint32_t max_len)
{
    std::uint32_t len;
    if (!readU32(f, len) || len > max_len)
        return false;
    out.resize(len);
    return len == 0 || readExact(f, out.data(), len);
}

} // namespace

bool
readDump(const std::string &path, Snapshot &snap_out,
         std::string &reason_out, std::string &error_out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        error_out = "cannot open " + path;
        return false;
    }
    auto fail = [&](const char *what) {
        error_out = std::string(what) + " in " + path;
        std::fclose(f);
        return false;
    };
    unsigned char magic[8];
    if (!readExact(f, magic, sizeof magic) ||
        std::memcmp(magic, dumpMagic, sizeof magic) != 0) {
        return fail("bad magic");
    }
    std::uint32_t version;
    if (!readU32(f, version) || version != dumpVersion)
        return fail("unsupported version");
    if (!readString(f, reason_out, 1u << 20))
        return fail("bad reason string");
    std::uint32_t module_count;
    if (!readU32(f, module_count) || module_count > maxModules)
        return fail("bad module count");
    snap_out.modules.clear();
    snap_out.modules.reserve(module_count);
    for (std::uint32_t m = 0; m < module_count; ++m) {
        std::string name;
        if (!readString(f, name, maxModuleName))
            return fail("bad module name");
        snap_out.modules.push_back(std::move(name));
    }
    std::uint32_t count;
    if (!readU64(f, snap_out.totalWritten) || !readU32(f, count) ||
        count > ringCapacity || count > snap_out.totalWritten) {
        return fail("bad ring header");
    }
    snap_out.records.resize(count);
    if (count > 0 &&
        !readExact(f, snap_out.records.data(), count * sizeof(Record))) {
        return fail("truncated ring");
    }
    std::fclose(f);
    return true;
}

std::vector<Record>
tickOrdered(const Snapshot &snap)
{
    std::vector<Record> timeline = snap.records;
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const Record &a, const Record &b) {
                         return a.tick < b.tick;
                     });
    return timeline;
}

std::string
formatEntry(const Snapshot &snap, const Record &rec)
{
    const char *module = rec.module < snap.modules.size()
                             ? snap.modules[rec.module].c_str()
                             : "?";
    char buf[96];
    std::snprintf(buf, sizeof buf, "@%-14llu %-22s ",
                  static_cast<unsigned long long>(rec.tick), module);
    return buf + probe::format(rec);
}

} // namespace f4t::sim::fr
