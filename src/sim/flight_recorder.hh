/**
 * @file
 * Always-on flight recorder: one fixed-capacity ring of compact binary
 * records capturing the simulator's last moments, and the machinery
 * that dumps that ring automatically at the point of failure.
 *
 * Every instrumented site writes here through SimObject::probe()
 * (sim/simulation.hh); the text trace and the Chrome timeline are
 * views of the same record (sim/probe.hh). Unlike those views, pcap
 * and `--profile`, the recorder is **not** behind a compile gate or a
 * runtime switch: it is built into the release preset too, because its
 * whole purpose is post-failure forensics for runs that were never
 * expected to fail. The hot path is a handful of plain stores into an
 * L2-resident slot of a static ring and a relaxed index bump: no
 * locks, no CAS, no allocation, no call, no branch.
 *
 * The recorder never touches simulated state, so fingerprints (which
 * mix simulated quantities only) are unchanged by construction; its
 * wall-clock cost is inside every release-build benchmark number.
 *
 * Record format (32 bytes, fixed): tick (8), two payload words (8+8),
 * flow (4), module id (2), kind (1), pad (1). `flow` is
 * domain-specific: TCP-layer records (FPC, scheduler) carry the local
 * flow id; network-layer records carry a folded four-tuple hash; 0
 * means "no flow". Payload words carry kind-specific detail (bytes,
 * priorities, window numbers), labelled per kind in sim/probe.cc.
 *
 * Threading contract: only the thread that runs simulations writes
 * records and interns modules. The watchdog thread and the
 * fatal-signal handler only read. That is why the ring's head and the
 * module count are atomic: a reader takes a racy-but-harmless
 * snapshot — a record being overwritten mid-dump decodes as garbage
 * for that one slot, which is acceptable for forensics and keeps the
 * writer wait-free. The ring and the module table are constinit,
 * trivially destructible statics, so panic, atexit, watchdog and
 * signal dumps can walk them without touching the allocator or a lock.
 *
 * Dump triggers (each writes a versioned `.f4tfr` file):
 *  1. F4T_CHECK / audit failure — hooked into sim::detail::panicImpl.
 *  2. Fatal signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) — handlers
 *     installed at static-init time, async-signal-safe write() path.
 *  3. Wall-clock watchdog — armed by the partitioned executor; fires
 *     when no event progress (beat()) happens for the armed timeout.
 *  4. Explicit API — dumpNow()/dumpToFile().
 *
 * Dumps land in $F4T_DUMP_DIR (default "."). tools/f4t_blackbox
 * decodes them; the decoder core lives here (readDump/tickOrdered) so
 * tests can round-trip without spawning the tool.
 */

#ifndef F4T_SIM_FLIGHT_RECORDER_HH
#define F4T_SIM_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace f4t::sim::fr
{

/**
 * Event kinds: the one name of every probe point. Append only — dumps
 * store the raw byte, so removing or reordering a kind takes a new dump
 * version. What each kind's payload words mean, its text name and its
 * timeline category are the rows of sim/probe.cc.
 */
enum class Kind : std::uint8_t
{
    none = 0,
    evDispatch,
    fpcUserSend,
    fpcUserRecv,
    fpcUserConnect,
    fpcUserClose,
    fpcRxSegment,
    fpcTimeout,
    fpcInstall,
    fpcEvict,
    schedMigrate,
    schedEvict,
    linkTx,
    linkFault,
    switchEnqueue,
    switchDrop,
    switchForward,
    pcieDma,
    pcieDoorbell,
    parBarrier,
    mark,
    rxParse,
    rxDropUnknown,
    rxSynReject,
    rxOooDrop,
    pktgenSegment,
    pktgenRetransmit,
    pktgenControl,
    fpuPass,
    memCacheMiss,
    memInsert,
    memExtract,
    memSwapRequest,
    schedAllocDram,
    schedRebalance,
    schedSwapIn,
    engineAccept,
    engineConnect,
    engineRecycle,
    timerFire,
    softTcpState,
    libSend,
    libDeliver,
    hifFetch,
    hifFlush,
    upcallPost,
    fpuIssue,
    numKinds
};

constexpr std::size_t numKinds = static_cast<std::size_t>(Kind::numKinds);

/** One ring slot. Exactly 32 bytes; written raw into dumps. */
struct Record
{
    std::uint64_t tick;
    std::uint64_t a;
    std::uint64_t b;
    std::uint32_t flow;
    std::uint16_t module;
    std::uint8_t kind;
    std::uint8_t pad;
};

static_assert(sizeof(Record) == 32, "dump format assumes 32-byte records");

/** Records kept (power of two; 4096 x 32 B = 128 KiB). */
constexpr std::size_t ringCapacity = 4096;

namespace detail
{

/** head counts records ever written; record n sits in
 *  slots[n & (ringCapacity - 1)]. */
struct Ring
{
    std::atomic<std::uint64_t> head{0};
    Record slots[ringCapacity] = {};
};

/** The one ring, written by the simulation thread. */
extern constinit Ring ring;
/** Watchdog heartbeat: bumped by beat(), polled by the watchdog. */
extern constinit std::atomic<std::uint64_t> heartbeat;

} // namespace detail

/**
 * Intern @p name into the module table, returning its stable id.
 * Cold path — call once at module construction and cache the id.
 * Returns 0 (the "kernel" module) when the table is full.
 */
std::uint16_t internModule(std::string_view name);

/** Name of module @p id; empty when no module has that id. */
std::string moduleName(std::uint16_t id);

/**
 * The hot path: append one record to the ring. Plain stores and a
 * relaxed index bump — see the file comment for the cost contract.
 */
inline void
record(Kind kind, std::uint64_t tick, std::uint16_t module,
       std::uint32_t flow, std::uint64_t a = 0, std::uint64_t b = 0)
{
    std::uint64_t head = detail::ring.head.load(std::memory_order_relaxed);
    Record &slot = detail::ring.slots[head & (ringCapacity - 1)];
    slot.tick = tick;
    slot.a = a;
    slot.b = b;
    slot.flow = flow;
    slot.module = module;
    slot.kind = static_cast<std::uint8_t>(kind);
    slot.pad = 0;
    detail::ring.head.store(head + 1, std::memory_order_relaxed);
}

/** Watchdog heartbeat: cheap enough to call every few thousand events. */
inline void
beat()
{
    detail::heartbeat.fetch_add(1, std::memory_order_relaxed);
}

// --- snapshots and dumps ------------------------------------------------

/** A racy-but-harmless copy of the ring plus the module table. */
struct Snapshot
{
    std::vector<std::string> modules;
    std::uint64_t totalWritten = 0;
    std::vector<Record> records; ///< oldest first, in write order
};

/** Copy the ring now (no synchronization with the writer — forensics). */
Snapshot snapshot();

/** Reset the ring (fuzz harness clears between worlds). */
void clear();

/** Write @p snap as a versioned .f4tfr file. */
bool writeSnapshot(const Snapshot &snap, const std::string &path,
                   const std::string &reason);

/** snapshot() + writeSnapshot(). */
bool dumpToFile(const std::string &path, const std::string &reason);

/**
 * Dump to $F4T_DUMP_DIR (default ".") under a generated name.
 * Returns the path, or an empty string on failure.
 */
std::string dumpNow(const std::string &reason);

/**
 * The failure funnel: dump once per process (panic, audit, signal and
 * watchdog all arrive here), print the path to stderr, never throw.
 * Subsequent calls are no-ops so panic -> abort -> SIGABRT handler
 * does not double-dump.
 */
void dumpOnFailure(const std::string &reason);

/** Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers (idempotent;
 *  installed automatically at static-init time). */
void installSignalHandlers();

// --- watchdog -----------------------------------------------------------

/**
 * Arm the wall-clock watchdog: if beat() is not called for
 * @p seconds, @p on_stall runs once on the watchdog thread (default
 * hook: dumpOnFailure + abort, turning a CI hang into a dump and a
 * fast failure). The polling thread is spawned lazily and parked
 * while disarmed. Nested arms are not supported; the last arm wins.
 */
void armWatchdog(double seconds,
                 std::function<void()> on_stall = nullptr);

/** Disarm (healthy completion). */
void disarmWatchdog();

/** True once an armed watchdog has fired (tests). */
bool watchdogFired();

/** Watchdog timeout for partitioned runs from $F4T_WATCHDOG_SECS: a
 *  finite, non-negative decimal (unset or empty: 120; 0 disables).
 *  Anything else is fatal. Read once, on first use. */
double defaultWatchdogSeconds();

// --- decoder core (shared by tools/f4t_blackbox and tests) --------------

/** Parse a .f4tfr file. Returns false (with @p error set) on any
 *  format problem. */
bool readDump(const std::string &path, Snapshot &snap_out,
              std::string &reason_out, std::string &error_out);

/**
 * The snapshot's records sorted by tick. The sort is stable, so
 * same-tick records keep their write order. Write order is not tick
 * order: a partitioned run writes one partition's window before the
 * other's, and link_tx is stamped at its serialization start.
 */
std::vector<Record> tickOrdered(const Snapshot &snap);

/** Human-readable one-liner for a record of @p snap. */
std::string formatEntry(const Snapshot &snap, const Record &rec);

} // namespace f4t::sim::fr

#endif // F4T_SIM_FLIGHT_RECORDER_HH
