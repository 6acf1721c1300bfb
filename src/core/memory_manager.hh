/**
 * @file
 * The memory manager (Section 4.3.1, Figure 5): handles events for
 * DRAM-resident flows and decides which flows to swap back into FPCs.
 *
 * Like the FPC's event handler, it never processes TCP algorithms —
 * it only accumulates events into the DRAM-resident TCB (through a
 * direct-mapped TCB cache) and runs the check logic: if the flow could
 * now send packets / progress, it asks the scheduler to swap it in;
 * otherwise the flow keeps waiting in DRAM with its events recorded.
 *
 * Timing: the functional TCB content is authoritative in backing
 * storage; the cache model decides which accesses cost DRAM bandwidth.
 * A cache-resident flow absorbs one event per cycle; a miss stalls
 * that flow's events behind the DRAM fetch (other flows continue).
 */

#ifndef F4T_CORE_MEMORY_MANAGER_HH
#define F4T_CORE_MEMORY_MANAGER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>

#include "core/fpc.hh"
#include "mem/dram.hh"
#include "mem/tcb_cache.hh"
#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"
#include "tcp/tcb.hh"

namespace f4t::core
{

class Scheduler;

struct MemoryManagerConfig
{
    std::size_t cacheLines = 4096;
};

class MemoryManager : public sim::ClockedObject
{
  public:
    MemoryManager(sim::Simulation &sim, std::string name,
                  sim::ClockDomain &domain, mem::DramModel &dram,
                  const MemoryManagerConfig &config);
    ~MemoryManager() override;

    /**
     * Structural invariant audit (checked builds): miss queues, pending
     * swap-in marks, and queued events only reference DRAM-resident
     * flows, and every resident merged TCB is sequence-space sane.
     */
    void auditInvariants() const;

    void setScheduler(Scheduler *scheduler) { scheduler_ = scheduler; }

    // --- flow storage (called by the scheduler) ---------------------------
    /**
     * Store an arriving TCB (eviction from an FPC or a brand-new flow
     * placed in DRAM). @p on_complete fires when the TCB has "arrived"
     * and the location LUT may be updated (the evict-complete signal).
     */
    void insertFlow(MigratingTcb &&incoming,
                    std::function<void()> on_complete);

    /**
     * Remove a flow for swap-in to an FPC. The callback fires after
     * the (cache-hit or DRAM) read completes.
     */
    void extractFlow(tcp::FlowId flow,
                     std::function<void(MigratingTcb &&)> on_ready);

    /** Drop a closed flow entirely. */
    void dropFlow(tcp::FlowId flow);

    bool holdsFlow(tcp::FlowId flow) const
    {
        return backing_.count(flow) != 0;
    }

    /** Merged view of a resident TCB (diagnostics / tests). */
    tcp::Tcb
    peekMergedTcb(tcp::FlowId flow) const
    {
        auto it = backing_.find(flow);
        f4t_assert(it != backing_.end(), "peek of absent flow %u", flow);
        return tcp::merge(it->second.tcb, it->second.events);
    }

    std::size_t flowCount() const { return backing_.size(); }

    /** Re-run the check logic after the flow's location settled. */
    void
    recheckFlow(tcp::FlowId flow)
    {
        swapRequested_.erase(flow);
        checkLogic(flow);
    }

    // --- event input (from the scheduler) -----------------------------------
    /** Depth of the event input FIFO. */
    static constexpr std::size_t inputFifoDepth = 64;

    bool canAcceptEvent() const { return inputFifo_.size() < inputFifoDepth; }
    void enqueueEvent(const tcp::TcpEvent &event);

    // --- statistics ---------------------------------------------------------
    std::uint64_t eventsHandled() const { return eventsHandled_.value(); }
    std::uint64_t cacheHits() const { return cacheHits_.value(); }
    std::uint64_t cacheMisses() const { return cacheMisses_.value(); }
    std::uint64_t swapInRequests() const { return swapInRequests_.value(); }

  protected:
    bool tick() override;

  private:
    /** Apply one event to the authoritative TCB and run check logic. */
    void applyEvent(const tcp::TcpEvent &event);

    /** Touch the cache for @p flow; true = hit (no DRAM traffic). On a
     *  miss, @p miss_ready receives the DRAM fetch completion tick. */
    bool cacheAccess(tcp::FlowId flow, bool dirty,
                     sim::Tick *miss_ready = nullptr);

    void checkLogic(tcp::FlowId flow);

    mem::DramModel &dram_;
    Scheduler *scheduler_ = nullptr;

    std::unordered_map<tcp::FlowId, MigratingTcb> backing_;
    mem::DirectMappedCache<std::uint8_t> cache_;
    std::deque<tcp::TcpEvent> inputFifo_;
    /** Events parked behind an in-flight DRAM fetch, per flow. */
    std::unordered_map<tcp::FlowId, std::deque<tcp::TcpEvent>> missQueues_;
    /** Flows already flagged to the scheduler for swap-in. */
    std::set<tcp::FlowId> swapRequested_;

    sim::Counter eventsHandled_;
    sim::Counter cacheHits_;
    sim::Counter cacheMisses_;
    sim::Counter swapInRequests_;
    sim::Counter writebacks_;
};

} // namespace f4t::core

#endif // F4T_CORE_MEMORY_MANAGER_HH
