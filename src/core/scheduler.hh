/**
 * @file
 * The scheduler: F4T's memory orchestration engine (Sections 4.3–4.4,
 * Figure 5).
 *
 * Responsibilities, exactly as in the paper:
 *  - track the up-to-date location of every flow's TCB in the
 *    location LUT (FPC #k, DRAM, or MOVING while a migration is in
 *    flight);
 *  - route events to the module holding their TCB, several per cycle
 *    (LUT partitions let one event route per FPC pair per cycle);
 *  - coalesce events of the same flow in 4 x 16-entry FIFOs before
 *    routing, but only when no information would be lost
 *    (Section 4.4.1);
 *  - park events whose flow is MOVING in the pending queue and retry
 *    every 12 cycles — retries always terminate because migrations
 *    complete and the LUT is updated before the mark clears;
 *    (modelled exactly, but executed lazily: MOVING-flow entries sit
 *    in per-flow parked lists and re-enter the retry calendar when the
 *    migration settles, at precisely the 12-cycle lattice point the
 *    polling hardware would next have attempted — see DESIGN.md §17);
 *  - drive migrations: eviction of cold flows to DRAM, swap-in of
 *    sendable flows from DRAM, and FPC-to-FPC rebalancing when one
 *    FPC's input backpressures (Section 4.4.2);
 *  - place new flows on the FPC with the lowest flow count.
 */

#ifndef F4T_CORE_SCHEDULER_HH
#define F4T_CORE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/fpc.hh"
#include "sim/simulation.hh"
#include "tcp/tcb.hh"

namespace f4t::core
{

class MemoryManager;

/** Where a flow's TCB currently lives. */
struct Location
{
    enum class Kind : std::uint8_t
    {
        unallocated,
        fpc,
        dram,
        moving,
    };

    Kind kind = Kind::unallocated;
    std::uint8_t fpcIndex = 0;
};

struct SchedulerConfig
{
    std::size_t maxFlows = 65536;
    /** Event coalescing (Section 4.4.1); off in the 1FPC ablation. */
    bool coalescingEnabled = true;
};

class Scheduler : public sim::ClockedObject
{
  public:
    /** Coalescing FIFOs, and the entries each holds (4 x 16). */
    static constexpr std::size_t coalesceFifos = 4;
    static constexpr std::size_t coalesceDepth = 16;
    /** Pending-queue retry period for events of a MOVING flow. */
    static constexpr sim::Cycles pendingRetryCycles = 12;
    /** Input backlog at which an FPC counts as congested. */
    static constexpr std::size_t congestionThreshold = 12;

    Scheduler(sim::Simulation &sim, std::string name,
              sim::ClockDomain &domain, const SchedulerConfig &config);
    ~Scheduler() override;

    /** Wire up the FPCs; also registers this scheduler as their evict
     *  sink. Call once at construction time. */
    void attachFpcs(std::vector<Fpc *> fpcs);
    void attachMemoryManager(MemoryManager *manager);

    /**
     * Migration-protocol invariant audit (checked builds): every
     * allocated flow's TCB exists in exactly one place consistent with
     * its location-LUT entry — no TCB is lost or duplicated across
     * MOVING states — and no module holds a TCB the LUT forgot.
     */
    void auditInvariants() const;

    // --- flow lifecycle ----------------------------------------------------
    /**
     * Place a brand-new flow: the FPC with the lowest flow count, or
     * DRAM when every FPC is full.
     */
    void allocateFlow(const MigratingTcb &initial);

    /** Remove a closed flow from the LUT (engine recycles the ID). */
    void freeFlow(tcp::FlowId flow);

    Location location(tcp::FlowId flow) const;

    // --- event input ---------------------------------------------------------
    /** Submit an event from the host interface / RX parser / timers. */
    void submitEvent(const tcp::TcpEvent &event);

    // --- migration protocol ---------------------------------------------------
    /**
     * Memory manager's check logic found a sendable DRAM flow.
     * @return false when the request cannot be taken now (the flow is
     * mid-migration); the caller must retry when the move settles.
     */
    bool requestSwapIn(tcp::FlowId flow);

    // --- statistics ------------------------------------------------------------
    std::uint64_t eventsRouted() const { return eventsRouted_.value(); }
    std::uint64_t eventsCoalesced() const { return eventsCoalesced_.value(); }
    std::uint64_t migrations() const { return migrations_.value(); }
    std::uint64_t rebalances() const { return rebalances_.value(); }

  protected:
    bool tick() override;

  private:
    struct MoveState
    {
        bool toDram = false;
        std::uint8_t destFpc = 0;
        /** The TCB left its source and awaits installation. */
        std::optional<MigratingTcb> inTransit;
        /** A DRAM extract has been issued and is in flight. */
        bool extractPending = false;
        /** When the migration began (timeline span start). */
        sim::Tick startedAt = 0;
    };

    struct PendingEntry
    {
        tcp::TcpEvent event;
        /** Next attempt cycle; always on the entry's 12-cycle lattice
         *  (firstPend + k * pendingRetryCycles). */
        sim::Cycles retryCycle;
        /** Global first-pend order; ties on retryCycle break by it. */
        std::uint64_t pendSeq;
    };

    /** One retry-calendar slot: all queued entries sharing one
     *  retryCycle, kept in pendSeq order. Live retry cycles span at
     *  most pendingRetryCycles + 1 consecutive values, so a ring of
     *  that many buckets maps each live cycle to its own bucket. */
    struct PendingBucket
    {
        std::deque<PendingEntry> entries;
    };

    Location &lut(tcp::FlowId flow);
    const Location &lut(tcp::FlowId flow) const;

    /** Attempt to deliver one event; false means try again later. */
    bool routeEvent(const tcp::TcpEvent &event);

    /** Start evicting @p flow from its FPC toward @p destination. */
    void startEviction(tcp::FlowId flow, bool to_dram,
                       std::uint8_t dest_fpc);

    /** An evicted TCB arrived from an FPC. */
    void onEvicted(MigratingTcb &&leaving);

    /** A TCB extracted from DRAM is ready to install. */
    void onExtracted(MigratingTcb &&incoming);

    /** Try to finish pending installs (FPC swap-in port permitting). */
    void progressInstalls();

    /** Pick the FPC with the lowest flow count; nullopt if all full. */
    std::optional<std::size_t> leastLoadedFpc(bool require_space) const;

    /** Ensure space in @p fpc by evicting its coldest flow to DRAM. */
    void makeRoom(std::size_t fpc_index);

    /** sched_migrate's route word (DESIGN.md §10). */
    enum class Route : std::uint8_t
    {
        allocToDram,
        fpcToDram,
        toFpc,
    };

    /** Probe span for a migration that just completed. */
    void noteMigrationDone(tcp::FlowId flow, Route route,
                           sim::Tick started_at);

    // --- SoA per-flow state accessors (DESIGN.md §17) ---------------------
    /** Migration state for @p flow, or nullptr when not MOVING. */
    MoveState *movingState(tcp::FlowId flow);
    const MoveState *movingState(tcp::FlowId flow) const;
    MoveState &startMoving(tcp::FlowId flow, MoveState &&state);
    void stopMoving(tcp::FlowId flow);

    /** Append @p entry to the retry calendar at its retryCycle. */
    void appendPending(PendingEntry &&entry);
    /** Ordered insert (by pendSeq) for settle-time re-injection. */
    void insertPending(PendingEntry &&entry);
    /** Park @p entry on its flow's MOVING list (no calendar slot). */
    void parkEntry(PendingEntry &&entry);
    /**
     * A MOVING flow settled: re-inject its parked entries into the
     * retry calendar at the lattice point the polling hardware would
     * next have attempted. @p in_tick distinguishes the
     * progressInstalls path (before this tick's retry scan, so an
     * entry may mature this very cycle) from completion callbacks
     * (which run after the scheduler's tick at the same cycle).
     */
    void settleFlow(tcp::FlowId flow, bool in_tick);

    SchedulerConfig config_;
    std::vector<Fpc *> fpcs_;
    MemoryManager *memoryManager_ = nullptr;

    std::vector<Location> lut_;
    std::vector<std::deque<tcp::TcpEvent>> fifos_;
    std::size_t nextFifo_ = 0;

    // Retry state, SoA (DESIGN.md §17). The pending queue is a
    // calendar ring indexed by retryCycle % (pendingRetryCycles + 1);
    // live retry cycles span at most that many consecutive values, so
    // each nonempty bucket holds exactly one retry cycle. Entries
    // whose flow is MOVING are parked per flow instead — their retries
    // are provably side-effect-free, so the calendar only carries
    // attempts that can do work.
    std::vector<PendingBucket> pendingRing_;
    std::size_t pendingQueued_ = 0; ///< entries in the calendar ring
    std::size_t pendingParked_ = 0; ///< entries on parked lists
    std::uint64_t nextPendSeq_ = 0;

    /** Pended events per flow (queued + parked): O(1) "must queue
     *  behind pended work" test on the route path. Dense, indexed by
     *  FlowId (the engine allocates IDs below maxFlows). */
    std::vector<std::uint32_t> pendedCount_;

    /** Migration state: dense index into a pooled MoveState arena
     *  (-1 when not MOVING) replaces the former hash map, so the
     *  per-route moving test is one array load. */
    std::vector<std::int32_t> moveIdx_;
    std::vector<MoveState> movePool_;
    std::vector<std::int32_t> moveFree_;

    /** Parked MOVING-flow entries: dense index into pooled per-flow
     *  lists (-1 when none). Slots keep their capacity across reuse. */
    std::vector<std::int32_t> parkedIdx_;
    std::vector<std::deque<PendingEntry>> parkedPool_;
    std::vector<std::int32_t> parkedFree_;
    /** Install-ready flows, queued per destination FPC. Each FPC's
     *  swap-in port takes one TCB per two cycles, so only the head of
     *  each queue can ever make progress in a tick — per-FPC queues
     *  make progressInstalls O(#FPCs) instead of O(stuck installs). */
    std::vector<std::deque<tcp::FlowId>> installQueues_;
    std::size_t installsQueued_ = 0;

    sim::Counter eventsRouted_;
    sim::Counter eventsCoalesced_;
    sim::Counter eventsPended_;
    sim::Counter eventsParked_;
    sim::Counter retryAttempts_;
    sim::Counter migrations_;
    sim::Counter rebalances_;
    sim::Counter fifoOverflows_;
};

} // namespace f4t::core

#endif // F4T_CORE_SCHEDULER_HH
