/**
 * @file
 * FPC: the Flow Processing Core (paper Section 4.2, Figure 4).
 *
 * Composition of the event handler, the dual memory (TCB table +
 * event table with per-field valid bits), the round-robin TCB
 * manager, the fully pipelined FPU, the evict checker, and the
 * flow-ID CAM.
 *
 * Timing model (250 MHz): the two BRAMs each expose two ports and the
 * accesses are scheduled in a two-cycle pattern exactly as in
 * Section 4.2.3:
 *
 *  - even cycle ("solid"): the TCB table accepts one swapped-in TCB;
 *    the event table stores one handled event (the event handler's
 *    single-cycle RMW for duplicate-ACK counting shares this port
 *    pair); both tables are read for the handler's merged view.
 *  - odd cycle ("dotted"): the TCB table stores one FPU write-back;
 *    the TCB manager reads both tables to construct an up-to-date TCB
 *    for the FPU and clears the flow's valid bits.
 *
 * Hence one event is absorbed and one TCB issued per two cycles:
 * 125 M events/s per FPC at 250 MHz, with no RMW stalls regardless of
 * the FPU program's latency.
 */

#ifndef F4T_CORE_FPC_HH
#define F4T_CORE_FPC_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/bram.hh"
#include "sim/ring_fifo.hh"
#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"
#include "tcp/tcb.hh"

namespace f4t::core
{

/** A TCB in flight between an FPC and DRAM: the FPU-processed TCB
 *  plus any events accumulated after the FPU pass started. */
struct MigratingTcb
{
    tcp::Tcb tcb;
    tcp::EventRecord events;
};

/**
 * Content-addressable memory mapping global flow IDs to local table
 * indices (Section 4.4.2). The hardware implements it as a comparator
 * array + binary log; a lookup hits exactly one entry by construction
 * (the scheduler only routes events to the FPC holding the flow),
 * which this model asserts.
 *
 * The host-side implementation is a small open-addressing hash table
 * (linear probing, tombstone deletion) rather than std::unordered_map:
 * every handled event performs a lookup, so the table must resolve a
 * hit in one or two probes of a flat, cache-resident array.
 */
class FlowCam
{
  public:
    explicit FlowCam(std::size_t slots)
    {
        freeSlots_.reserve(slots);
        for (std::size_t i = slots; i > 0; --i)
            freeSlots_.push_back(i - 1);
        // Capacity 4x the slot count keeps the load factor under 25%,
        // so probe chains stay short even with tombstones around.
        std::size_t cap = 16;
        while (cap < slots * 4)
            cap <<= 1;
        cells_.resize(cap);
    }

    bool full() const { return freeSlots_.empty(); }
    std::size_t occupancy() const { return occupancy_; }

    std::size_t
    insert(tcp::FlowId flow)
    {
        f4t_assert(!full(), "CAM insert into full FPC");
        f4t_assert(findCell(flow) == nullptr,
                   "CAM double insert of flow %u", flow);
        std::size_t slot = freeSlots_.back();
        freeSlots_.pop_back();

        std::size_t idx = probeStart(flow);
        while (cells_[idx].state == Cell::fullState)
            idx = nextProbe(idx);
        if (cells_[idx].state == Cell::deadState)
            --tombstones_;
        cells_[idx] = Cell{flow, static_cast<std::uint32_t>(slot),
                           Cell::fullState};
        ++occupancy_;
        return slot;
    }

    void
    erase(tcp::FlowId flow)
    {
        Cell *cell = findCell(flow);
        f4t_assert(cell != nullptr, "CAM erase of absent flow %u", flow);
        freeSlots_.push_back(cell->slot);
        cell->state = Cell::deadState;
        --occupancy_;
        ++tombstones_;
        // Tombstones lengthen every future probe chain; once they
        // rival a quarter of the table, rebuild it clean.
        if (tombstones_ * 4 > cells_.size())
            rebuild();
    }

    /** The single matching entry; asserts the hit exists. */
    std::size_t
    lookup(tcp::FlowId flow) const
    {
        const Cell *cell = findCell(flow);
        f4t_assert(cell != nullptr, "CAM miss for flow %u — the "
                   "scheduler routed an event to the wrong FPC", flow);
        return cell->slot;
    }

    bool contains(tcp::FlowId flow) const { return findCell(flow) != nullptr; }

  private:
    struct Cell
    {
        static constexpr std::uint8_t emptyState = 0;
        static constexpr std::uint8_t fullState = 1;
        static constexpr std::uint8_t deadState = 2; ///< tombstone

        tcp::FlowId key = 0;
        std::uint32_t slot = 0;
        std::uint8_t state = emptyState;
    };

    std::size_t
    probeStart(tcp::FlowId flow) const
    {
        // Fibonacci hashing spreads the (often sequential) flow IDs.
        std::uint64_t h = flow * 0x9E3779B97F4A7C15ULL;
        return static_cast<std::size_t>(h >> 32) & (cells_.size() - 1);
    }

    std::size_t
    nextProbe(std::size_t idx) const
    {
        return (idx + 1) & (cells_.size() - 1);
    }

    const Cell *
    findCell(tcp::FlowId flow) const
    {
        std::size_t idx = probeStart(flow);
        while (true) {
            const Cell &cell = cells_[idx];
            if (cell.state == Cell::emptyState)
                return nullptr;
            if (cell.state == Cell::fullState && cell.key == flow)
                return &cell;
            idx = nextProbe(idx);
        }
    }

    Cell *
    findCell(tcp::FlowId flow)
    {
        return const_cast<Cell *>(
            static_cast<const FlowCam *>(this)->findCell(flow));
    }

    void
    rebuild()
    {
        std::vector<Cell> old = std::move(cells_);
        cells_.assign(old.size(), Cell{});
        tombstones_ = 0;
        for (const Cell &cell : old) {
            if (cell.state != Cell::fullState)
                continue;
            std::size_t idx = probeStart(cell.key);
            while (cells_[idx].state == Cell::fullState)
                idx = nextProbe(idx);
            cells_[idx] = cell;
        }
    }

    std::vector<Cell> cells_;
    std::size_t occupancy_ = 0;
    std::size_t tombstones_ = 0;
    std::vector<std::size_t> freeSlots_;
};

struct FpcConfig
{
    std::size_t slots = 128;
    std::size_t inputFifoDepth = 16;
    /** Override the FPU program's pipeline latency (0 = use program). */
    unsigned fpuLatencyOverride = 0;
};

class Fpc : public sim::ClockedObject
{
  public:
    /** Called at FPU write-back with the actions of the pass. */
    using ActionSink =
        std::function<void(tcp::FlowId, tcp::FpuActions &&)>;
    /** Called when an evicted TCB leaves toward DRAM / another FPC. */
    using EvictSink = std::function<void(MigratingTcb &&)>;

    Fpc(sim::Simulation &sim, std::string name, sim::ClockDomain &domain,
        const tcp::FpuProgram &program, const FpcConfig &config);
    ~Fpc() override;

    /**
     * Structural invariant audit (checked builds): slot occupancy
     * matches the CAM, every FPU-pipe job references an occupied slot
     * that is flagged inFpu, and every queued event's flow is resident.
     */
    void auditInvariants() const;

    void setActionSink(ActionSink sink) { actionSink_ = std::move(sink); }
    void setEvictSink(EvictSink sink) { evictSink_ = std::move(sink); }

    // --- scheduler-facing interface --------------------------------------
    /** Input FIFO backpressure. */
    bool canAcceptEvent() const { return inputFifo_.size() < config_.inputFifoDepth; }
    void enqueueEvent(const tcp::TcpEvent &event);
    std::size_t inputBacklog() const { return inputFifo_.size(); }

    /** Dedicated swap-in write port: one TCB per two cycles. */
    bool canAcceptTcb() const;
    void installTcb(const MigratingTcb &incoming);

    /** Mark a flow for eviction; it leaves after its next FPU pass. */
    void requestEvict(tcp::FlowId flow);

    /** The least-recently-active resident flow (eviction candidate). */
    std::optional<tcp::FlowId> coldestFlow() const;

    /** Slots currently flagged for eviction (room being made). The
     *  scheduler polls this every cycle while installs are stuck, so
     *  it is a maintained counter, not a slot scan (the audit
     *  recounts). */
    std::size_t pendingEvictions() const { return pendingEvictions_; }

    bool hasFlow(tcp::FlowId flow) const { return cam_.contains(flow); }
    std::size_t flowCount() const { return cam_.occupancy(); }
    std::size_t capacity() const { return config_.slots; }
    bool full() const { return cam_.full(); }

    /** Release a flow whose connection fully closed (FPU said so). */
    void releaseFlow(tcp::FlowId flow);

    /** Read-only view of a resident merged TCB (tests/diagnostics). */
    tcp::Tcb peekMergedTcb(tcp::FlowId flow) const;

    const tcp::FpuProgram &program() const { return program_; }
    unsigned fpuLatency() const { return fpuLatency_; }

    // --- statistics -----------------------------------------------------------
    std::uint64_t eventsHandled() const { return eventsHandled_.value(); }
    std::uint64_t fpuPasses() const { return fpuPasses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

  protected:
    bool tick() override;

  private:
    struct FpuJob
    {
        sim::Cycles readyCycle;
        std::size_t slotIndex;
        tcp::FlowId flow;
        tcp::Tcb merged;
    };

    void handleEvent(const tcp::TcpEvent &event, sim::Cycles cycle);
    bool slotEligible(std::size_t index) const;
    void recycleSlot(std::size_t index);
    void issueSlot(std::size_t index, sim::Cycles cycle);
    void writeback(FpuJob &job, sim::Cycles cycle);
    bool fifoHoldsFlow(tcp::FlowId flow) const;
    std::uint64_t nowUs() const { return now() / 1'000'000; }

    // --- SoA slot-state helpers -------------------------------------------
    static bool
    testBit(const std::vector<std::uint64_t> &bits, std::size_t i)
    {
        return (bits[i >> 6] >> (i & 63)) & 1;
    }
    static void
    assignBit(std::vector<std::uint64_t> &bits, std::size_t i, bool on)
    {
        std::uint64_t mask = std::uint64_t{1} << (i & 63);
        if (on)
            bits[i >> 6] |= mask;
        else
            bits[i >> 6] &= ~mask;
    }
    /** One word of "would issueSlot have work" bits. */
    std::uint64_t
    eligibleWord(std::size_t w) const
    {
        return occupiedBits_[w] & ~inFpuBits_[w] &
               (evictBits_[w] | eventsValidBits_[w]);
    }
    /** First eligible slot at or (circularly) after @p from, else
     *  config_.slots when none is eligible. */
    std::size_t firstEligibleFrom(std::size_t from) const;

    const tcp::FpuProgram &program_;
    FpcConfig config_;
    unsigned fpuLatency_;

    sim::RingFifo<tcp::TcpEvent> inputFifo_;
    /**
     * Per-slot state, struct-of-arrays (DESIGN.md §17). The four
     * booleans the round-robin eligibility scan reads are bitmap words;
     * eventsValidBits_ is a maintained mirror of the event table (every
     * table write site updates it — the BRAM model is write-first, so
     * mirror and table never diverge within a cycle; the audit recounts
     * it against the table).
     */
    std::vector<std::uint64_t> occupiedBits_;
    std::vector<std::uint64_t> inFpuBits_;
    std::vector<std::uint64_t> evictBits_;
    /** Mirror: eventTable_.peek(i).validMask != 0. */
    std::vector<std::uint64_t> eventsValidBits_;
    std::vector<std::uint64_t> lastActiveCycle_;
    std::vector<tcp::FlowId> slotFlow_;
    mem::DualPortBram<tcp::Tcb> tcbTable_;
    mem::DualPortBram<tcp::EventRecord> eventTable_;
    FlowCam cam_;
    sim::RingFifo<FpuJob> fpuPipe_;
    std::size_t rrIndex_ = 0;
    /**
     * Cycle through which rrIndex_ is synced. The round-robin pointer
     * models a scan that advances on every dotted cycle whether or not
     * the FPC object ticked; fast-forward naps skip host events, and
     * the pointer catches up lazily at the top of tick().
     */
    sim::Cycles rrSyncedCycle_ = 0;
    /** Checked builds: validates the 1-event-per-2-cycles port claim. */
    F4T_IF_CHECKS(sim::Cycles lastEventCycle_ = 0;
                  bool anyEventHandled_ = false;)
    sim::Cycles lastInstallCycle_ = 0;
    /** Count of slots with evictFlag set (see pendingEvictions()). */
    std::size_t pendingEvictions_ = 0;
    bool installUsedThisWindow_ = false;

    ActionSink actionSink_;
    EvictSink evictSink_;

    sim::Counter eventsHandled_;
    sim::Counter fpuPasses_;
    sim::Counter evictions_;
    sim::Counter swapIns_;
    sim::Counter dupAckIncrements_;
};

} // namespace f4t::core

#endif // F4T_CORE_FPC_HH
