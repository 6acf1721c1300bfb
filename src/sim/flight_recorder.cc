#include "flight_recorder.hh"

#include "sim/probe.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace f4t::sim::fr
{

namespace
{

/* Dump format: 8-byte magic, u32 version, then length-prefixed reason
 * string, module table and rings. Native endianness — a dump is read
 * on the machine that wrote it. */
constexpr unsigned char dumpMagic[8] = {'F', '4', 'T', 'F',
                                        'R', '\n', 0x1a, 0x00};
constexpr std::uint32_t dumpVersion = 1;

/* Cold-path state kept out of the header's Globals so the
 * signal-handler walk stays over trivially-safe fields only. */
std::mutex &
coldMutex()
{
    static std::mutex *mutex = new std::mutex;
    return *mutex;
}

std::atomic<std::uint32_t> nextThreadId{0};
std::atomic<std::uint32_t> nextDumpSeq{0};

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

/*
 * Write the live rings straight from the global tables. Every call in
 * here is async-signal-safe (write/strlen/atomic loads over fixed
 * storage), so the fatal-signal handler can use it directly.
 */
bool
writeLiveRawFd(int fd, const char *reason)
{
    detail::Globals &g = detail::globals();
    if (!writeAll(fd, dumpMagic, sizeof dumpMagic) ||
        !writeU32(fd, dumpVersion)) {
        return false;
    }
    std::size_t reason_len = std::strlen(reason);
    if (!writeU32(fd, static_cast<std::uint32_t>(reason_len)) ||
        !writeAll(fd, reason, reason_len)) {
        return false;
    }
    std::uint32_t modules =
        g.moduleCount.load(std::memory_order_acquire);
    if (!writeU32(fd, modules))
        return false;
    for (std::uint32_t m = 0; m < modules; ++m) {
        std::size_t len =
            ::strnlen(g.moduleNames[m], detail::maxModuleName);
        if (!writeU32(fd, static_cast<std::uint32_t>(len)) ||
            !writeAll(fd, g.moduleNames[m], len)) {
            return false;
        }
    }
    std::uint32_t rings = g.ringCount.load(std::memory_order_acquire);
    if (!writeU32(fd, rings))
        return false;
    for (std::uint32_t r = 0; r < rings; ++r) {
        detail::Ring *ring = g.rings[r];
        std::uint64_t total = ring->head.load(std::memory_order_relaxed);
        std::uint64_t start = total > ringCapacity ? total - ringCapacity : 0;
        std::uint32_t count = static_cast<std::uint32_t>(total - start);
        if (!writeU32(fd, ring->threadId.load(std::memory_order_relaxed)) ||
            !writeU64(fd, total) ||
            !writeU32(fd, count)) {
            return false;
        }
        for (std::uint64_t i = start; i < total; ++i) {
            const Record &rec = ring->slots[i & (ringCapacity - 1)];
            if (!writeAll(fd, &rec, sizeof rec))
                return false;
        }
    }
    return true;
}

bool
writeSnapshotFd(int fd, const Snapshot &snap, const std::string &reason)
{
    if (!writeAll(fd, dumpMagic, sizeof dumpMagic) ||
        !writeU32(fd, dumpVersion)) {
        return false;
    }
    if (!writeU32(fd, static_cast<std::uint32_t>(reason.size())) ||
        !writeAll(fd, reason.data(), reason.size())) {
        return false;
    }
    if (!writeU32(fd, static_cast<std::uint32_t>(snap.modules.size())))
        return false;
    for (const std::string &name : snap.modules) {
        if (!writeU32(fd, static_cast<std::uint32_t>(name.size())) ||
            !writeAll(fd, name.data(), name.size())) {
            return false;
        }
    }
    if (!writeU32(fd, static_cast<std::uint32_t>(snap.rings.size())))
        return false;
    for (const Snapshot::RingCopy &ring : snap.rings) {
        if (!writeU32(fd, ring.threadId) ||
            !writeU64(fd, ring.totalWritten) ||
            !writeU32(fd,
                      static_cast<std::uint32_t>(ring.records.size()))) {
            return false;
        }
        if (!ring.records.empty() &&
            !writeAll(fd, ring.records.data(),
                      ring.records.size() * sizeof(Record))) {
            return false;
        }
    }
    return true;
}

const char *
dumpDir()
{
    const char *dir = std::getenv("F4T_DUMP_DIR");
    return dir != nullptr && dir[0] != '\0' ? dir : ".";
}

/*
 * The shared failure funnel: first caller wins, everything here is
 * async-signal-safe. Prints the dump path (or nothing on failure) so
 * CI logs point straight at the artifact.
 */
void
dumpOnFailureC(const char *reason)
{
    detail::Globals &g = detail::globals();
    bool expected = false;
    if (!g.dumpedOnFailure.compare_exchange_strong(expected, true))
        return;
    if (!g.enabled.load(std::memory_order_relaxed))
        return;
    char path[512];
    std::size_t off = appendStr(path, 0, sizeof path, dumpDir());
    off = appendStr(path, off, sizeof path, "/f4t-crash-");
    char pid[24];
    formatU64(pid, static_cast<std::uint64_t>(::getpid()));
    off = appendStr(path, off, sizeof path, pid);
    appendStr(path, off, sizeof path, ".f4tfr");
    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    bool ok = writeLiveRawFd(fd, reason);
    ::close(fd);
    if (ok) {
        const char prefix[] = "flight recorder: dumped ";
        (void)!::write(2, prefix, sizeof prefix - 1);
        (void)!::write(2, path, std::strlen(path));
        (void)!::write(2, "\n", 1);
    }
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
    detail::Globals &g = detail::globals();
    std::unique_lock<std::mutex> lock(dog.mutex);
    for (;;) {
        dog.cv.wait(lock, [&] { return dog.armed; });
        std::uint64_t my_generation = dog.generation;
        double timeout = dog.timeoutSecs;
        auto poll = std::chrono::duration<double>(
            std::min(timeout / 4.0, 0.25));
        std::uint64_t last_beat =
            g.heartbeat.load(std::memory_order_relaxed);
        auto last_change = std::chrono::steady_clock::now();
        while (dog.armed && dog.generation == my_generation) {
            dog.cv.wait_for(lock, poll);
            if (!dog.armed || dog.generation != my_generation)
                break;
            std::uint64_t beat_now =
                g.heartbeat.load(std::memory_order_relaxed);
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

/* Runtime gate + fatal-signal handlers come up with the process, not
 * with any particular harness, so release binaries are covered too. */
struct EnvInit
{
    EnvInit()
    {
        const char *env = std::getenv("F4T_FLIGHT_RECORDER");
        if (env != nullptr && std::strcmp(env, "0") == 0) {
            detail::globals().enabled.store(false,
                                            std::memory_order_relaxed);
        }
        installSignalHandlers();
    }
};
EnvInit envInit;

} // namespace

namespace detail
{

Globals &
globals()
{
    /* Immortal: dumps can run from atexit/signal context after
     * function-local statics would have been destroyed. */
    static Globals *g = new Globals;
    return *g;
}

namespace
{

/** Hands the thread's ring back when the thread exits: a registered
 *  ring is retired (dumpable until reused), an unregistered one —
 *  the table was full — is freed, since no dump can reach it. */
class RingLease
{
  public:
    RingLease(Ring *ring, bool registered)
        : ring_(ring), registered_(registered)
    {}

    ~RingLease()
    {
        if (registered_)
            ring_->retired.store(true, std::memory_order_release);
        else
            delete ring_;
    }

    RingLease(const RingLease &) = delete;
    RingLease &operator=(const RingLease &) = delete;

    Ring &ring() const { return *ring_; }

  private:
    Ring *ring_;
    bool registered_;
};

} // namespace

Ring &
threadRingSlow()
{
    Globals &g = globals();
    std::uint32_t id = nextThreadId.fetch_add(1, std::memory_order_relaxed);
    Ring *ring = nullptr;
    bool registered = true;
    {
        std::lock_guard<std::mutex> lock(coldMutex());
        std::uint32_t count = g.ringCount.load(std::memory_order_relaxed);
        for (std::uint32_t r = 0; r < count && ring == nullptr; ++r) {
            if (g.rings[r]->retired.load(std::memory_order_acquire))
                ring = g.rings[r];
        }
        if (ring != nullptr) {
            ring->head.store(0, std::memory_order_relaxed);
            ring->retired.store(false, std::memory_order_relaxed);
        } else {
            ring = new Ring; /* never freed: dumps outlive the thread */
            registered = count < maxRings;
            if (registered) {
                g.rings[count] = ring;
                g.ringCount.store(count + 1, std::memory_order_release);
            }
        }
        ring->threadId.store(id, std::memory_order_relaxed);
    }
    thread_local RingLease lease(ring, registered);
    return lease.ring();
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::globals().enabled.store(on, std::memory_order_relaxed);
}

std::uint16_t
internModule(std::string_view name)
{
    detail::Globals &g = detail::globals();
    std::lock_guard<std::mutex> lock(coldMutex());
    std::uint32_t count = g.moduleCount.load(std::memory_order_relaxed);
    std::size_t len = std::min(name.size(), detail::maxModuleName - 1);
    for (std::uint32_t m = 0; m < count; ++m) {
        if (::strnlen(g.moduleNames[m], detail::maxModuleName) == len &&
            std::memcmp(g.moduleNames[m], name.data(), len) == 0) {
            return static_cast<std::uint16_t>(m);
        }
    }
    if (count >= detail::maxModules)
        return 0;
    std::memcpy(g.moduleNames[count], name.data(), len);
    g.moduleNames[count][len] = '\0';
    g.moduleCount.store(count + 1, std::memory_order_release);
    return static_cast<std::uint16_t>(count);
}

std::string
moduleName(std::uint16_t id)
{
    detail::Globals &g = detail::globals();
    if (id >= g.moduleCount.load(std::memory_order_acquire))
        return {};
    return std::string(g.moduleNames[id],
                       ::strnlen(g.moduleNames[id], detail::maxModuleName));
}

Snapshot
snapshot()
{
    detail::Globals &g = detail::globals();
    Snapshot snap;
    std::uint32_t modules = g.moduleCount.load(std::memory_order_acquire);
    snap.modules.reserve(modules);
    for (std::uint32_t m = 0; m < modules; ++m) {
        snap.modules.emplace_back(
            g.moduleNames[m],
            ::strnlen(g.moduleNames[m], detail::maxModuleName));
    }
    std::uint32_t rings = g.ringCount.load(std::memory_order_acquire);
    for (std::uint32_t r = 0; r < rings; ++r) {
        detail::Ring *ring = g.rings[r];
        Snapshot::RingCopy copy;
        copy.threadId = ring->threadId.load(std::memory_order_relaxed);
        copy.totalWritten = ring->head.load(std::memory_order_relaxed);
        std::uint64_t start = copy.totalWritten > ringCapacity
                                  ? copy.totalWritten - ringCapacity
                                  : 0;
        copy.records.reserve(
            static_cast<std::size_t>(copy.totalWritten - start));
        for (std::uint64_t i = start; i < copy.totalWritten; ++i)
            copy.records.push_back(ring->slots[i & (ringCapacity - 1)]);
        snap.rings.push_back(std::move(copy));
    }
    return snap;
}

void
clear()
{
    detail::Globals &g = detail::globals();
    std::uint32_t rings = g.ringCount.load(std::memory_order_acquire);
    for (std::uint32_t r = 0; r < rings; ++r)
        g.rings[r]->head.store(0, std::memory_order_relaxed);
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
    if (!enabled())
        return {};
    std::uint32_t seq =
        nextDumpSeq.fetch_add(1, std::memory_order_relaxed);
    std::string path = std::string(dumpDir()) + "/f4t-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(seq) + ".f4tfr";
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
    static std::atomic<bool> installed{false};
    bool expected = false;
    if (!installed.compare_exchange_strong(expected, true))
        return;
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
        return std::strtod(env, nullptr);
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
    std::uint32_t modules;
    if (!readU32(f, modules) || modules > detail::maxModules)
        return fail("bad module count");
    snap_out.modules.clear();
    snap_out.modules.reserve(modules);
    for (std::uint32_t m = 0; m < modules; ++m) {
        std::string name;
        if (!readString(f, name, detail::maxModuleName))
            return fail("bad module name");
        snap_out.modules.push_back(std::move(name));
    }
    std::uint32_t rings;
    if (!readU32(f, rings) || rings > detail::maxRings)
        return fail("bad ring count");
    snap_out.rings.clear();
    snap_out.rings.reserve(rings);
    for (std::uint32_t r = 0; r < rings; ++r) {
        Snapshot::RingCopy ring;
        std::uint32_t count;
        if (!readU32(f, ring.threadId) ||
            !readU64(f, ring.totalWritten) || !readU32(f, count) ||
            count > ringCapacity) {
            return fail("bad ring header");
        }
        ring.records.resize(count);
        if (count > 0 &&
            !readExact(f, ring.records.data(), count * sizeof(Record))) {
            return fail("truncated ring");
        }
        snap_out.rings.push_back(std::move(ring));
    }
    std::fclose(f);
    return true;
}

std::vector<TimelineEntry>
mergeTimeline(const Snapshot &snap)
{
    std::vector<TimelineEntry> timeline;
    std::size_t total = 0;
    for (const Snapshot::RingCopy &ring : snap.rings)
        total += ring.records.size();
    timeline.reserve(total);
    for (const Snapshot::RingCopy &ring : snap.rings) {
        for (const Record &rec : ring.records)
            timeline.push_back(TimelineEntry{rec, ring.threadId});
    }
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const TimelineEntry &a, const TimelineEntry &b) {
                         return a.rec.tick < b.rec.tick;
                     });
    return timeline;
}

std::string
formatEntry(const Snapshot &snap, const TimelineEntry &entry)
{
    const Record &rec = entry.rec;
    const char *module = rec.module < snap.modules.size()
                             ? snap.modules[rec.module].c_str()
                             : "?";
    char buf[96];
    std::snprintf(buf, sizeof buf, "@%-14llu t%-3u %-22s ",
                  static_cast<unsigned long long>(rec.tick),
                  entry.threadId, module);
    return buf + probe::format(rec);
}

} // namespace f4t::sim::fr
