#include "memory_manager.hh"

#include "core/scheduler.hh"

namespace f4t::core
{

MemoryManager::MemoryManager(sim::Simulation &sim, std::string name,
                             sim::ClockDomain &domain,
                             mem::DramModel &dram,
                             const MemoryManagerConfig &config)
    : ClockedObject(sim, std::move(name), domain, sim::prof::Cat::memory),
      dram_(dram), cache_(config.cacheLines),
      eventsHandled_(sim.stats(), statName("eventsHandled"),
                     "events handled against DRAM-resident TCBs"),
      cacheHits_(sim.stats(), statName("cacheHits"), "TCB cache hits"),
      cacheMisses_(sim.stats(), statName("cacheMisses"),
                   "TCB cache misses (DRAM reads)"),
      swapInRequests_(sim.stats(), statName("swapInRequests"),
                      "flows flagged sendable by the check logic"),
      writebacks_(sim.stats(), statName("writebacks"),
                  "dirty cache lines written back to DRAM")
{
    sim.registerAudit(this, statName("audit"),
                      [this] { auditInvariants(); });
}

MemoryManager::~MemoryManager()
{
    sim().deregisterAudits(this);
}

void
MemoryManager::auditInvariants() const
{
    // Every structure keyed by flow refers to a DRAM-resident TCB:
    // extract/drop purge the side structures along with the backing.
    for (const auto &[flow, events] : missQueues_) {
        F4T_CHECK(backing_.count(flow) != 0,
                  "%s: miss queue (%zu events) for absent flow %u",
                  name().c_str(), events.size(), flow);
    }
    for (tcp::FlowId flow : swapRequested_) {
        F4T_CHECK(backing_.count(flow) != 0,
                  "%s: swap-in requested for absent flow %u",
                  name().c_str(), flow);
    }
    for (const tcp::TcpEvent &event : inputFifo_) {
        F4T_CHECK(backing_.count(event.flow) != 0,
                  "%s: queued event for absent flow %u", name().c_str(),
                  event.flow);
    }
    for (const auto &[flow, entry] : backing_) {
        F4T_CHECK(entry.tcb.flowId == flow,
                  "%s: backing entry %u holds TCB of flow %u",
                  name().c_str(), flow, entry.tcb.flowId);
        tcp::checkTcbInvariants(tcp::merge(entry.tcb, entry.events),
                                name().c_str());
    }
}

bool
MemoryManager::cacheAccess(tcp::FlowId flow, bool dirty,
                           sim::Tick *miss_ready)
{
    if (cache_.find(flow)) {
        cache_.recordHit();
        ++cacheHits_;
        if (dirty)
            cache_.markDirty(flow);
        return true;
    }
    cache_.recordMiss();
    ++cacheMisses_;
    probe(sim::fr::Kind::memCacheMiss, flow);
    // Fetch the line; a displaced dirty resident is written back.
    auto victim = cache_.insert(flow, 0, dirty);
    sim::Tick ready = dram_.accessTime(tcp::tcbWireBytes);
    if (victim) {
        ++writebacks_;
        dram_.accessTime(tcp::tcbWireBytes);
    }
    if (miss_ready)
        *miss_ready = ready;
    return false;
}

void
MemoryManager::insertFlow(MigratingTcb &&incoming,
                          std::function<void()> on_complete)
{
    tcp::FlowId flow = incoming.tcb.flowId;
    probe(sim::fr::Kind::memInsert, flow, backing_.size() + 1);
    backing_[flow] = std::move(incoming);
    // The line lands in the cache dirty; DRAM sees it on writeback.
    auto victim = cache_.insert(flow, 0, true);
    sim::Tick arrival = now() + clock().period();
    if (victim) {
        ++writebacks_;
        arrival = dram_.accessTime(tcp::tcbWireBytes);
    }
    swapRequested_.erase(flow);
    if (on_complete)
        queue().scheduleCallback(arrival, sim::prof::Cat::memory,
                                 "memmgr.insert", std::move(on_complete));

    // The arriving TCB may already carry work (e.g., events accumulated
    // while the flow was migrating); the check logic looks right away.
    checkLogic(flow);
    activate();
}

void
MemoryManager::extractFlow(tcp::FlowId flow,
                           std::function<void(MigratingTcb &&)> on_ready)
{
    auto it = backing_.find(flow);
    f4t_assert(it != backing_.end(), "%s: extract of absent flow %u",
               name().c_str(), flow);
    MigratingTcb leaving = std::move(it->second);
    backing_.erase(it);
    swapRequested_.erase(flow);
    probe(sim::fr::Kind::memExtract, flow, backing_.size());

    // Events parked behind an in-flight fetch travel with the TCB so
    // nothing is lost when the flow leaves mid-miss.
    if (auto mq = missQueues_.find(flow); mq != missQueues_.end()) {
        for (const tcp::TcpEvent &ev : mq->second) {
            tcp::accumulateEvent(leaving.events, leaving.tcb, ev);
        }
        missQueues_.erase(mq);
    }

    // The analog of the FPC's evict checker: events already routed
    // into our input FIFO before the scheduler marked the flow as
    // moving must leave with the TCB, not dangle behind it.
    for (auto it2 = inputFifo_.begin(); it2 != inputFifo_.end();) {
        if (it2->flow == flow) {
            tcp::accumulateEvent(leaving.events, leaving.tcb, *it2);
            it2 = inputFifo_.erase(it2);
        } else {
            ++it2;
        }
    }

    sim::Tick ready;
    if (cache_.invalidate(flow)) {
        // SRAM-resident: forwarding needs no DRAM round trip.
        ready = now() + clock().period();
    } else {
        ready = dram_.accessTime(tcp::tcbWireBytes);
    }
    queue().scheduleCallback(
        ready, sim::prof::Cat::memory, "memmgr.extract",
        [cb = std::move(on_ready), tcb = std::move(leaving)]() mutable {
            cb(std::move(tcb));
        });
}

void
MemoryManager::dropFlow(tcp::FlowId flow)
{
    backing_.erase(flow);
    cache_.invalidate(flow);
    missQueues_.erase(flow);
    swapRequested_.erase(flow);
}

void
MemoryManager::enqueueEvent(const tcp::TcpEvent &event)
{
    f4t_assert(canAcceptEvent(), "%s: event enqueued past backpressure",
               name().c_str());
    inputFifo_.push_back(event);
    activate();
}

bool
MemoryManager::tick()
{
    // One event absorbed per cycle when its TCB is cache-resident.
    if (!inputFifo_.empty()) {
        tcp::TcpEvent event = inputFifo_.front();
        inputFifo_.pop_front();
        applyEvent(event);
    }
    return !inputFifo_.empty();
}

void
MemoryManager::applyEvent(const tcp::TcpEvent &event)
{
    auto it = backing_.find(event.flow);
    if (it == backing_.end()) {
        // The flow left toward an FPC after this event was routed; the
        // scheduler's moving-state protocol makes this unreachable.
        f4t_panic("%s: event for flow %u not resident in DRAM",
                  name().c_str(), event.flow);
    }

    ++eventsHandled_;
    MigratingTcb &entry = it->second;

    // A fetch already in flight for this flow: keep ordering and make
    // sure no event can be lost to a concurrent extract.
    if (auto mq = missQueues_.find(event.flow); mq != missQueues_.end()) {
        mq->second.push_back(event);
        return;
    }

    sim::Tick miss_ready = 0;
    bool hit = cacheAccess(event.flow, /*dirty=*/true, &miss_ready);
    if (hit) {
        tcp::accumulateEvent(entry.events, entry.tcb, event);
        checkLogic(event.flow);
        return;
    }

    // Miss: the functional update happens when the fetch completes;
    // meanwhile later events of the same flow queue behind it.
    auto [mq, inserted] = missQueues_.try_emplace(event.flow);
    mq->second.push_back(event);
    if (!inserted)
        return; // fetch already in flight

    tcp::FlowId flow = event.flow;
    queue().scheduleCallback(miss_ready, sim::prof::Cat::memory,
                             "memmgr.missReady", [this, flow] {
        auto mq_it = missQueues_.find(flow);
        if (mq_it == missQueues_.end())
            return;
        auto events = std::move(mq_it->second);
        missQueues_.erase(mq_it);
        auto backing_it = backing_.find(flow);
        if (backing_it == backing_.end())
            return; // extracted while the fetch was in flight
        for (const tcp::TcpEvent &ev : events) {
            tcp::accumulateEvent(backing_it->second.events,
                                 backing_it->second.tcb, ev);
        }
        checkLogic(flow);
    });
}

void
MemoryManager::checkLogic(tcp::FlowId flow)
{
    if (!scheduler_ || swapRequested_.count(flow))
        return;
    auto it = backing_.find(flow);
    if (it == backing_.end())
        return;
    tcp::Tcb merged = tcp::merge(it->second.tcb, it->second.events);
    if (tcp::FpuProgram::tcbNeedsProcessing(merged)) {
        if (scheduler_->requestSwapIn(flow)) {
            // A taken request extracts the flow from DRAM synchronously,
            // so nothing remains resident to mark as requested.
            ++swapInRequests_;
            probe(sim::fr::Kind::memSwapRequest, flow);
        } else {
            // Mid-migration: suppress re-requests until the scheduler
            // pokes us via recheckFlow() once the location settles.
            swapRequested_.insert(flow);
        }
    }
}

} // namespace f4t::core
