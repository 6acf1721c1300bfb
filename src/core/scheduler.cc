#include "scheduler.hh"

#include "core/memory_manager.hh"

#include <algorithm>
#include <limits>

namespace f4t::core
{

Scheduler::Scheduler(sim::Simulation &sim, std::string name,
                     sim::ClockDomain &domain,
                     const SchedulerConfig &config)
    : ClockedObject(sim, std::move(name), domain,
                    sim::prof::Cat::scheduler),
      config_(config), lut_(config.maxFlows), fifos_(coalesceFifos),
      pendingRing_(pendingRetryCycles + 1),
      pendedCount_(config.maxFlows, 0),
      moveIdx_(config.maxFlows, -1), parkedIdx_(config.maxFlows, -1),
      eventsRouted_(sim.stats(), statName("eventsRouted"),
                    "events delivered to FPCs or DRAM"),
      eventsCoalesced_(sim.stats(), statName("eventsCoalesced"),
                       "events merged in the coalesce FIFOs"),
      eventsPended_(sim.stats(), statName("eventsPended"),
                    "events parked while their flow was moving"),
      eventsParked_(sim.stats(), statName("eventsParked"),
                    "pended events held off-calendar during migration"),
      retryAttempts_(sim.stats(), statName("retryAttempts"),
                     "pending-queue route attempts actually executed"),
      migrations_(sim.stats(), statName("migrations"),
                  "TCB migrations completed"),
      rebalances_(sim.stats(), statName("rebalances"),
                  "FPC-to-FPC load-balancing migrations"),
      fifoOverflows_(sim.stats(), statName("fifoOverflows"),
                     "events submitted past the coalesce window")
{
    f4t_assert(config_.maxFlows <=
                   static_cast<std::size_t>(
                       std::numeric_limits<std::int32_t>::max()),
               "flow ids must fit the dense SoA indices");
    sim.registerAudit(this, statName("audit"),
                      [this] { auditInvariants(); });
}

Scheduler::~Scheduler()
{
    sim().deregisterAudits(this);
}

void
Scheduler::auditInvariants() const
{
    std::size_t fpc_flows_seen = 0;
    std::size_t dram_flows_seen = 0;
    for (tcp::FlowId flow = 0; flow < lut_.size(); ++flow) {
        const Location &loc = lut_[flow];
        if (loc.kind == Location::Kind::unallocated)
            continue;

        std::size_t fpc_holders = 0;
        for (const Fpc *fpc : fpcs_)
            fpc_holders += fpc->hasFlow(flow) ? 1 : 0;
        bool in_dram = memoryManager_ && memoryManager_->holdsFlow(flow);
        const MoveState *mv = movingState(flow);
        fpc_flows_seen += fpc_holders;
        dram_flows_seen += in_dram ? 1 : 0;

        switch (loc.kind) {
          case Location::Kind::fpc:
            F4T_CHECK(fpc_holders == 1 &&
                          fpcs_[loc.fpcIndex]->hasFlow(flow),
                      "%s: flow %u LUT says FPC %u but %zu FPCs hold it",
                      name().c_str(), flow, loc.fpcIndex, fpc_holders);
            F4T_CHECK(!in_dram, "%s: flow %u in FPC %u and DRAM",
                      name().c_str(), flow, loc.fpcIndex);
            F4T_CHECK(mv == nullptr,
                      "%s: flow %u settled in FPC %u but still has "
                      "migration state", name().c_str(), flow,
                      loc.fpcIndex);
            break;
          case Location::Kind::dram:
            F4T_CHECK(in_dram && fpc_holders == 0,
                      "%s: flow %u LUT says DRAM (in_dram=%d, "
                      "fpc_holders=%zu)", name().c_str(), flow,
                      in_dram ? 1 : 0, fpc_holders);
            F4T_CHECK(mv == nullptr,
                      "%s: flow %u settled in DRAM but still has "
                      "migration state", name().c_str(), flow);
            break;
          case Location::Kind::moving: {
            // Exactly one live copy: still in the source FPC (evict
            // requested, not yet left), arrived in DRAM (insert
            // completion pending), in transit between modules, or
            // inside an in-flight DRAM extract.
            std::size_t copies = fpc_holders + (in_dram ? 1 : 0);
            if (mv) {
                copies += mv->inTransit ? 1 : 0;
                copies += mv->extractPending ? 1 : 0;
            }
            F4T_CHECK(copies == 1,
                      "%s: MOVING flow %u has %zu TCB copies "
                      "(fpc=%zu dram=%d transit=%d extract=%d)",
                      name().c_str(), flow, copies, fpc_holders,
                      in_dram ? 1 : 0, mv && mv->inTransit ? 1 : 0,
                      mv && mv->extractPending ? 1 : 0);
            break;
          }
          case Location::Kind::unallocated:
            break;
        }

        // Parked entries exist only while the flow is MOVING, in
        // first-pend order (settle re-injects them in that order).
        if (parkedIdx_[flow] >= 0) {
            const std::deque<PendingEntry> &parked =
                parkedPool_[parkedIdx_[flow]];
            F4T_CHECK(loc.kind == Location::Kind::moving,
                      "%s: flow %u has %zu parked events but is not "
                      "MOVING", name().c_str(), flow, parked.size());
            F4T_CHECK(!parked.empty(),
                      "%s: flow %u owns an empty parked slot",
                      name().c_str(), flow);
            for (std::size_t i = 1; i < parked.size(); ++i) {
                F4T_CHECK(parked[i - 1].pendSeq < parked[i].pendSeq,
                          "%s: flow %u parked list out of pend order "
                          "at %zu", name().c_str(), flow, i);
            }
        }
    }

    // No module may hold a TCB the LUT forgot: every resident flow was
    // visited above, so the per-module totals must match exactly.
    std::size_t fpc_total = 0;
    for (const Fpc *fpc : fpcs_)
        fpc_total += fpc->flowCount();
    F4T_CHECK(fpc_total == fpc_flows_seen,
              "%s: FPCs hold %zu flows but the LUT accounts for %zu "
              "(orphan TCB)", name().c_str(), fpc_total, fpc_flows_seen);
    if (memoryManager_) {
        F4T_CHECK(memoryManager_->flowCount() == dram_flows_seen,
                  "%s: DRAM holds %zu flows but the LUT accounts for "
                  "%zu (orphan TCB)", name().c_str(),
                  memoryManager_->flowCount(), dram_flows_seen);
    }

    // Pended events always belong to allocated flows (the retry path
    // can terminate only if their migrations eventually settle), and
    // the per-flow pended counts must mirror the calendar ring plus
    // the parked lists exactly. Each nonempty ring bucket carries a
    // single retry cycle, hashes to its own slot, and keeps first-pend
    // order (settle-time re-injection relies on all three).
    std::vector<std::uint32_t> recount(lut_.size(), 0);
    std::size_t queued = 0;
    for (std::size_t b = 0; b < pendingRing_.size(); ++b) {
        const std::deque<PendingEntry> &bucket = pendingRing_[b].entries;
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            const PendingEntry &entry = bucket[i];
            F4T_CHECK(lut_[entry.event.flow].kind !=
                          Location::Kind::unallocated,
                      "%s: pended event for unallocated flow %u",
                      name().c_str(), entry.event.flow);
            F4T_CHECK(entry.retryCycle % pendingRing_.size() == b,
                      "%s: retry cycle %llu filed in bucket %zu",
                      name().c_str(),
                      static_cast<unsigned long long>(entry.retryCycle),
                      b);
            if (i > 0) {
                F4T_CHECK(bucket[i - 1].retryCycle == entry.retryCycle,
                          "%s: bucket %zu mixes retry cycles %llu/%llu",
                          name().c_str(), b,
                          static_cast<unsigned long long>(
                              bucket[i - 1].retryCycle),
                          static_cast<unsigned long long>(
                              entry.retryCycle));
                F4T_CHECK(bucket[i - 1].pendSeq < entry.pendSeq,
                          "%s: bucket %zu out of pend order at %zu",
                          name().c_str(), b, i);
            }
            ++recount[entry.event.flow];
            ++queued;
        }
    }
    F4T_CHECK(queued == pendingQueued_,
              "%s: calendar holds %zu entries vs running count %zu",
              name().c_str(), queued, pendingQueued_);
    std::size_t parked_total = 0;
    std::size_t parked_slots = 0;
    for (tcp::FlowId flow = 0; flow < lut_.size(); ++flow) {
        if (parkedIdx_[flow] < 0)
            continue;
        ++parked_slots;
        const std::deque<PendingEntry> &parked =
            parkedPool_[parkedIdx_[flow]];
        for (const PendingEntry &entry : parked) {
            F4T_CHECK(entry.event.flow == flow,
                      "%s: flow %u parked list holds an event for "
                      "flow %u", name().c_str(), flow, entry.event.flow);
            ++recount[flow];
            ++parked_total;
        }
    }
    F4T_CHECK(parked_total == pendingParked_,
              "%s: parked lists hold %zu entries vs running count %zu",
              name().c_str(), parked_total, pendingParked_);
    F4T_CHECK(parked_slots + parkedFree_.size() == parkedPool_.size(),
              "%s: parked pool leaks slots (%zu used + %zu free != "
              "%zu)", name().c_str(), parked_slots, parkedFree_.size(),
              parkedPool_.size());
    for (tcp::FlowId flow = 0; flow < lut_.size(); ++flow) {
        F4T_CHECK(recount[flow] == pendedCount_[flow],
                  "%s: flow %u has %u pended events but the count "
                  "says %u", name().c_str(), flow, recount[flow],
                  pendedCount_[flow]);
    }

    // The MoveState pool's free list and the dense index agree.
    std::size_t moving_flows = 0;
    for (tcp::FlowId flow = 0; flow < lut_.size(); ++flow)
        moving_flows += moveIdx_[flow] >= 0 ? 1 : 0;
    F4T_CHECK(moving_flows + moveFree_.size() == movePool_.size(),
              "%s: move pool leaks slots (%zu used + %zu free != %zu)",
              name().c_str(), moving_flows, moveFree_.size(),
              movePool_.size());

    // Every install-queued flow is MOVING with a TCB in transit bound
    // for that queue's FPC, and the total matches the running count.
    std::size_t installs = 0;
    for (std::size_t f = 0; f < installQueues_.size(); ++f) {
        for (tcp::FlowId flow : installQueues_[f]) {
            const MoveState *mv = movingState(flow);
            F4T_CHECK(mv && mv->inTransit && mv->destFpc == f,
                      "%s: install queue %zu holds flow %u without a "
                      "matching in-transit TCB", name().c_str(), f, flow);
            ++installs;
        }
    }
    F4T_CHECK(installs == installsQueued_,
              "%s: %zu install-queued flows vs running count %zu",
              name().c_str(), installs, installsQueued_);
}

void
Scheduler::attachFpcs(std::vector<Fpc *> fpcs)
{
    fpcs_ = std::move(fpcs);
    f4t_assert(!fpcs_.empty(), "%s: no FPCs attached", name().c_str());
    f4t_assert(fpcs_.size() <= 255, "location LUT encodes FPC index in "
               "8 bits");
    installQueues_.resize(fpcs_.size());
    for (Fpc *fpc : fpcs_) {
        fpc->setEvictSink(
            [this](MigratingTcb &&leaving) { onEvicted(std::move(leaving)); });
    }
}

void
Scheduler::attachMemoryManager(MemoryManager *manager)
{
    memoryManager_ = manager;
}

Location &
Scheduler::lut(tcp::FlowId flow)
{
    f4t_assert(flow < lut_.size(), "flow %u beyond the location LUT", flow);
    return lut_[flow];
}

const Location &
Scheduler::lut(tcp::FlowId flow) const
{
    f4t_assert(flow < lut_.size(), "flow %u beyond the location LUT", flow);
    return lut_[flow];
}

Location
Scheduler::location(tcp::FlowId flow) const
{
    return lut(flow);
}

std::optional<std::size_t>
Scheduler::leastLoadedFpc(bool require_space) const
{
    std::optional<std::size_t> best;
    std::size_t best_count = ~std::size_t{0};
    for (std::size_t i = 0; i < fpcs_.size(); ++i) {
        if (require_space && fpcs_[i]->full())
            continue;
        std::size_t count = fpcs_[i]->flowCount();
        if (count < best_count) {
            best_count = count;
            best = i;
        }
    }
    return best;
}

void
Scheduler::allocateFlow(const MigratingTcb &initial)
{
    tcp::FlowId flow = initial.tcb.flowId;
    Location &loc = lut(flow);
    f4t_assert(loc.kind == Location::Kind::unallocated,
               "flow %u allocated twice", flow);

    auto target = leastLoadedFpc(/*require_space=*/true);
    if (target && fpcs_[*target]->canAcceptTcb()) {
        fpcs_[*target]->installTcb(initial);
        loc = Location{Location::Kind::fpc,
                       static_cast<std::uint8_t>(*target)};
        return;
    }

    // All FPCs full (or the swap-in port busy): the flow starts in DRAM;
    // the memory manager's check logic will swap it in when it has work.
    f4t_assert(memoryManager_ != nullptr,
               "%s: FPCs full and no DRAM attached", name().c_str());
    probe(sim::fr::Kind::schedAllocDram, flow);
    loc = Location{Location::Kind::moving, 0};
    MigratingTcb copy = initial;
    sim::Tick started = now();
    memoryManager_->insertFlow(std::move(copy), [this, flow, started] {
        lut(flow) = Location{Location::Kind::dram, 0};
        ++migrations_;
        noteMigrationDone(flow, Route::allocToDram, started);
        // Work may have accumulated while the LUT said MOVING.
        settleFlow(flow, /*in_tick=*/false);
        memoryManager_->recheckFlow(flow);
    });
}

void
Scheduler::freeFlow(tcp::FlowId flow)
{
    Location &loc = lut(flow);
    switch (loc.kind) {
      case Location::Kind::fpc:
        // The FPC slot was already recycled by the FPU's releaseFlow.
        break;
      case Location::Kind::dram:
        memoryManager_->dropFlow(flow);
        break;
      case Location::Kind::moving:
      case Location::Kind::unallocated:
        break;
    }
    F4T_CHECK(parkedIdx_[flow] < 0 && pendedCount_[flow] == 0,
              "%s: freeing flow %u with %u events still pended",
              name().c_str(), flow, pendedCount_[flow]);
    stopMoving(flow);
    loc = Location{};
}

void
Scheduler::submitEvent(const tcp::TcpEvent &event)
{
    f4t_assert(event.flow != tcp::invalidFlowId, "event without a flow");

    std::deque<tcp::TcpEvent> &fifo =
        fifos_[event.flow % fifos_.size()];

    // Coalescing pass (Section 4.4.1): merge with an in-FIFO event of
    // the same flow when no information is lost. Only the coalesce
    // window (the FIFO's nominal depth) is searched, as in hardware.
    std::size_t window =
        config_.coalescingEnabled
            ? (fifo.size() < coalesceDepth ? fifo.size() : coalesceDepth)
            : 0;
    for (std::size_t i = fifo.size() - window; i < fifo.size(); ++i) {
        if (fifo[i].flow != event.flow)
            continue;
        if (tcp::TcpEvent::canCoalesce(fifo[i], event)) {
            tcp::TcpEvent::coalesce(fifo[i], event);
            ++eventsCoalesced_;
            activate();
            return;
        }
        break; // same flow but not mergeable: keep ordering
    }

    if (fifo.size() >= coalesceDepth)
        ++fifoOverflows_; // upstream buffering modelled as elastic
    fifo.push_back(event);
    activate();
}

bool
Scheduler::routeEvent(const tcp::TcpEvent &event)
{
    Location &loc = lut(event.flow);
    switch (loc.kind) {
      case Location::Kind::fpc: {
        Fpc *fpc = fpcs_[loc.fpcIndex];
        if (!fpc->canAcceptEvent()) {
            // Congestion: consider migrating this flow to the idlest
            // FPC (Section 4.4.2) and retry the event later.
            if (fpc->inputBacklog() >= congestionThreshold &&
                !movingState(event.flow) && fpcs_.size() > 1) {
                // The idlest FPC by *input backlog* (the congestion
                // signal), not by flow count.
                std::optional<std::size_t> idlest;
                std::size_t best = ~std::size_t{0};
                for (std::size_t i = 0; i < fpcs_.size(); ++i) {
                    if (fpcs_[i] == fpc || fpcs_[i]->full())
                        continue;
                    if (fpcs_[i]->inputBacklog() < best) {
                        best = fpcs_[i]->inputBacklog();
                        idlest = i;
                    }
                }
                if (idlest && best + 2 < fpc->inputBacklog()) {
                    ++rebalances_;
                    probe(sim::fr::Kind::schedRebalance, event.flow,
                          loc.fpcIndex, *idlest);
                    startEviction(event.flow, /*to_dram=*/false,
                                  static_cast<std::uint8_t>(*idlest));
                }
            }
            return false;
        }
        fpc->enqueueEvent(event);
        ++eventsRouted_;
        return true;
      }
      case Location::Kind::dram:
        if (!memoryManager_->canAcceptEvent())
            return false;
        memoryManager_->enqueueEvent(event);
        ++eventsRouted_;
        return true;
      case Location::Kind::moving:
        return false;
      case Location::Kind::unallocated:
        f4t_panic("%s: event for unallocated flow %u", name().c_str(),
                  event.flow);
    }
    return false;
}

void
Scheduler::startEviction(tcp::FlowId flow, bool to_dram,
                         std::uint8_t dest_fpc)
{
    Location &loc = lut(flow);
    f4t_assert(loc.kind == Location::Kind::fpc,
               "evicting flow %u that is not in an FPC", flow);
    Fpc *source = fpcs_[loc.fpcIndex];

    MoveState state;
    state.toDram = to_dram;
    state.destFpc = dest_fpc;
    state.startedAt = now();
    probe(sim::fr::Kind::schedEvict, flow, loc.fpcIndex, to_dram);
    startMoving(flow, std::move(state));
    loc = Location{Location::Kind::moving, 0};
    source->requestEvict(flow);
}

void
Scheduler::onEvicted(MigratingTcb &&leaving)
{
    tcp::FlowId flow = leaving.tcb.flowId;
    MoveState *mv = movingState(flow);
    f4t_assert(mv != nullptr,
               "FPC evicted flow %u without a scheduler request", flow);

    if (mv->toDram) {
        sim::Tick started = mv->startedAt;
        memoryManager_->insertFlow(
            std::move(leaving), [this, flow, started] {
            // Evict-complete signal: the LUT points at DRAM now.
            stopMoving(flow);
            lut(flow) = Location{Location::Kind::dram, 0};
            ++migrations_;
            noteMigrationDone(flow, Route::fpcToDram, started);
            settleFlow(flow, /*in_tick=*/false);
            memoryManager_->recheckFlow(flow);
            activate();
        });
    } else {
        mv->inTransit = std::move(leaving);
        installQueues_[mv->destFpc].push_back(flow);
        ++installsQueued_;
        activate();
    }
}

bool
Scheduler::requestSwapIn(tcp::FlowId flow)
{
    Location &loc = lut(flow);
    if (loc.kind != Location::Kind::dram)
        return false; // mid-migration; the caller retries later
    f4t_assert(memoryManager_ != nullptr, "swap-in without DRAM");

    auto target = leastLoadedFpc(/*require_space=*/true);
    std::uint8_t dest;
    if (target) {
        dest = static_cast<std::uint8_t>(*target);
    } else {
        // Every FPC is full: make room in the least-loaded one by
        // evicting its coldest flow to DRAM first.
        auto any = leastLoadedFpc(/*require_space=*/false);
        f4t_assert(any.has_value(), "no FPCs attached");
        dest = static_cast<std::uint8_t>(*any);
        makeRoom(*any);
    }

    MoveState state;
    state.toDram = false;
    state.destFpc = dest;
    state.extractPending = true;
    state.startedAt = now();
    probe(sim::fr::Kind::schedSwapIn, flow, dest);
    startMoving(flow, std::move(state));
    loc = Location{Location::Kind::moving, 0};

    memoryManager_->extractFlow(flow, [this, flow](MigratingTcb &&tcb) {
        onExtracted(std::move(tcb));
    });
    return true;
}

void
Scheduler::makeRoom(std::size_t fpc_index)
{
    Fpc *fpc = fpcs_[fpc_index];
    if (fpc->pendingEvictions() > 0)
        return; // room is already being made
    auto victim = fpc->coldestFlow();
    if (!victim)
        return; // every slot is already evicting or in the FPU
    if (movingState(*victim))
        return;
    startEviction(*victim, /*to_dram=*/true, 0);
}

void
Scheduler::noteMigrationDone(tcp::FlowId flow, Route route,
                             sim::Tick started_at)
{
    probeSpan(sim::fr::Kind::schedMigrate, flow, now() - started_at,
              static_cast<std::uint64_t>(route), started_at, now());
}

Scheduler::MoveState *
Scheduler::movingState(tcp::FlowId flow)
{
    std::int32_t idx = moveIdx_[flow];
    return idx >= 0 ? &movePool_[idx] : nullptr;
}

const Scheduler::MoveState *
Scheduler::movingState(tcp::FlowId flow) const
{
    std::int32_t idx = moveIdx_[flow];
    return idx >= 0 ? &movePool_[idx] : nullptr;
}

Scheduler::MoveState &
Scheduler::startMoving(tcp::FlowId flow, MoveState &&state)
{
    f4t_assert(moveIdx_[flow] < 0, "flow %u is already moving", flow);
    std::int32_t idx;
    if (!moveFree_.empty()) {
        idx = moveFree_.back();
        moveFree_.pop_back();
        movePool_[idx] = std::move(state);
    } else {
        idx = static_cast<std::int32_t>(movePool_.size());
        movePool_.push_back(std::move(state));
    }
    moveIdx_[flow] = idx;
    return movePool_[idx];
}

void
Scheduler::stopMoving(tcp::FlowId flow)
{
    std::int32_t idx = moveIdx_[flow];
    if (idx < 0)
        return;
    movePool_[idx] = MoveState{}; // release any in-transit TCB now
    moveFree_.push_back(idx);
    moveIdx_[flow] = -1;
}

void
Scheduler::appendPending(PendingEntry &&entry)
{
    PendingBucket &bucket =
        pendingRing_[entry.retryCycle % pendingRing_.size()];
    f4t_assert(bucket.entries.empty() ||
                   (bucket.entries.back().retryCycle ==
                        entry.retryCycle &&
                    bucket.entries.back().pendSeq < entry.pendSeq),
               "pending append out of order");
    bucket.entries.push_back(std::move(entry));
    ++pendingQueued_;
}

void
Scheduler::insertPending(PendingEntry &&entry)
{
    PendingBucket &bucket =
        pendingRing_[entry.retryCycle % pendingRing_.size()];
    f4t_assert(bucket.entries.empty() ||
                   bucket.entries.front().retryCycle == entry.retryCycle,
               "pending insert into a bucket of another cycle");
    auto pos = std::lower_bound(
        bucket.entries.begin(), bucket.entries.end(), entry.pendSeq,
        [](const PendingEntry &e, std::uint64_t seq) {
            return e.pendSeq < seq;
        });
    bucket.entries.insert(pos, std::move(entry));
    ++pendingQueued_;
}

void
Scheduler::parkEntry(PendingEntry &&entry)
{
    tcp::FlowId flow = entry.event.flow;
    std::int32_t idx = parkedIdx_[flow];
    if (idx < 0) {
        if (!parkedFree_.empty()) {
            idx = parkedFree_.back();
            parkedFree_.pop_back();
        } else {
            idx = static_cast<std::int32_t>(parkedPool_.size());
            parkedPool_.emplace_back();
        }
        parkedIdx_[flow] = idx;
    }
    std::deque<PendingEntry> &parked = parkedPool_[idx];
    // Usually an append (fresh pends carry fresh seqs), but an old
    // calendar entry parking lazily at its next poll can trail a
    // younger entry parked straight off the route path.
    auto pos = std::lower_bound(
        parked.begin(), parked.end(), entry.pendSeq,
        [](const PendingEntry &e, std::uint64_t seq) {
            return e.pendSeq < seq;
        });
    parked.insert(pos, std::move(entry));
    ++pendingParked_;
    ++eventsParked_;
}

void
Scheduler::settleFlow(tcp::FlowId flow, bool in_tick)
{
    std::int32_t idx = parkedIdx_[flow];
    if (idx < 0)
        return;
    std::deque<PendingEntry> &parked = parkedPool_[idx];

    // The polling hardware kept attempting every entry on its fixed
    // 12-cycle lattice; while the flow was MOVING each attempt was a
    // provable no-op. Re-enter the calendar at the first lattice point
    // the poller would hit now that the LUT has settled: the current
    // cycle when settling inside this tick's install phase (the retry
    // scan runs right after and must see it), the next cycle when
    // settling from a completion callback (this cycle's scan already
    // ran — ClockedObject tick events carry clockPriority).
    const sim::Cycles period = pendingRetryCycles;
    const sim::Cycles horizon = curCycle() + (in_tick ? 0 : 1);
    while (!parked.empty()) {
        PendingEntry entry = std::move(parked.front());
        parked.pop_front();
        --pendingParked_;
        if (entry.retryCycle < horizon) {
            sim::Cycles missed = horizon - entry.retryCycle;
            entry.retryCycle += (missed + period - 1) / period * period;
        }
        insertPending(std::move(entry));
    }
    parkedFree_.push_back(idx);
    parkedIdx_[flow] = -1;
    if (!in_tick)
        activate(); // parked entries no longer drive the nap schedule
}

void
Scheduler::onExtracted(MigratingTcb &&incoming)
{
    tcp::FlowId flow = incoming.tcb.flowId;
    MoveState *mv = movingState(flow);
    f4t_assert(mv != nullptr, "extract completion for flow %u "
               "that is not moving", flow);
    mv->extractPending = false;
    mv->inTransit = std::move(incoming);
    installQueues_[mv->destFpc].push_back(flow);
    ++installsQueued_;
    activate();
}

void
Scheduler::progressInstalls()
{
    // Only the head of each destination's queue can move (the swap-in
    // port takes one TCB per two cycles), so look no deeper than that.
    for (std::size_t f = 0; f < installQueues_.size(); ++f) {
        std::deque<tcp::FlowId> &ready = installQueues_[f];
        if (ready.empty())
            continue;
        tcp::FlowId flow = ready.front();
        MoveState *mv = movingState(flow);
        f4t_assert(mv && mv->inTransit,
                   "install-ready flow %u has no TCB in transit", flow);
        f4t_assert(mv->destFpc == f,
                   "install queue %zu holds flow %u bound for fpc%u",
                   f, flow, mv->destFpc);
        Fpc *dest = fpcs_[f];

        if (dest->full()) {
            makeRoom(f);
            continue;
        }
        if (!dest->canAcceptTcb())
            continue;
        dest->installTcb(*mv->inTransit);
        lut(flow) = Location{Location::Kind::fpc, mv->destFpc};
        sim::Tick started = mv->startedAt;
        stopMoving(flow);
        ++migrations_;
        noteMigrationDone(flow, Route::toFpc, started);
        settleFlow(flow, /*in_tick=*/true);
        ready.pop_front();
        --installsQueued_;
    }
}

bool
Scheduler::tick()
{
    // Between ticks every migration is in a steady, auditable state;
    // mid-tick the LUT and module contents are transiently out of sync.
    sim().maybeAudit();

    sim::Cycles cycle = curCycle();

    // Finish migrations whose TCB is waiting for the swap-in port.
    if (installsQueued_ > 0)
        progressInstalls();

    // Retry pended events whose wait elapsed (12-cycle retry). Live
    // retry cycles span at most ring-size consecutive values, so the
    // calendar bucket for this cycle holds exactly the matured set —
    // in first-pend order — and a failed retry re-files one period
    // out (a different bucket; no entry is visited twice). A retry
    // that fails because its flow went MOVING parks instead: every
    // further poll until the migration settles is a provable no-op,
    // and settleFlow() re-files it on its unchanged retry lattice.
    PendingBucket &due = pendingRing_[cycle % pendingRing_.size()];
    if (!due.entries.empty() &&
        due.entries.front().retryCycle <= cycle) {
        std::deque<PendingEntry> matured;
        matured.swap(due.entries);
        pendingQueued_ -= matured.size();
        for (PendingEntry &entry : matured) {
            F4T_CHECK(entry.retryCycle == cycle,
                      "%s: entry matured at cycle %llu attempted at "
                      "%llu", name().c_str(),
                      static_cast<unsigned long long>(entry.retryCycle),
                      static_cast<unsigned long long>(cycle));
            ++retryAttempts_;
            if (routeEvent(entry.event)) {
                --pendedCount_[entry.event.flow];
            } else {
                entry.retryCycle = cycle + pendingRetryCycles;
                if (lut_[entry.event.flow].kind ==
                        Location::Kind::moving)
                    parkEntry(std::move(entry));
                else
                    appendPending(std::move(entry));
            }
        }
    }

    // Route up to one event per LUT partition per cycle: the paper's
    // provisioning is one route per two FPCs per cycle (each FPC
    // absorbs an event every other cycle).
    std::size_t budget = fpcs_.size() > 1 ? (fpcs_.size() + 1) / 2 : 1;
    for (std::size_t n = 0; n < budget; ++n) {
        // Round-robin over the coalesce FIFOs.
        bool routed = false;
        for (std::size_t k = 0; k < fifos_.size(); ++k) {
            std::size_t f = (nextFifo_ + k) % fifos_.size();
            if (fifos_[f].empty())
                continue;
            const tcp::TcpEvent &event = fifos_[f].front();
            Location::Kind kind = lut(event.flow).kind;
            // Events of a flow with older pended events must queue
            // behind them to preserve per-flow ordering.
            bool behind_pended = pendedCount_[event.flow] != 0;
            if (kind == Location::Kind::moving || behind_pended) {
                ++eventsPended_;
                ++pendedCount_[event.flow];
                PendingEntry entry{event,
                                   cycle + pendingRetryCycles,
                                   nextPendSeq_++};
                if (kind == Location::Kind::moving)
                    parkEntry(std::move(entry));
                else
                    appendPending(std::move(entry));
                fifos_[f].pop_front();
                routed = true;
            } else if (routeEvent(event)) {
                fifos_[f].pop_front();
                routed = true;
            } else {
                continue; // backpressured; try another FIFO
            }
            nextFifo_ = (f + 1) % fifos_.size();
            break;
        }
        if (!routed)
            break;
    }

    bool fifos_busy = installsQueued_ > 0;
    for (const auto &fifo : fifos_)
        fifos_busy = fifos_busy || !fifo.empty();
    if (fifos_busy)
        return true;

    // Only pended events remain and none matures before its 12-cycle
    // retry point: nap until the earliest one instead of ticking every
    // cycle. submitEvent()'s activate() cuts the nap short when new
    // traffic arrives. Parked entries never drive the nap — their
    // polls are no-ops by construction, and settleFlow() re-activates
    // when a migration completion makes them routable again.
    if (pendingQueued_ > 0) {
        sim::Cycles earliest = ~sim::Cycles{0};
        for (const PendingBucket &bucket : pendingRing_) {
            if (!bucket.entries.empty())
                earliest = std::min(earliest,
                                    bucket.entries.front().retryCycle);
        }
        if (earliest <= cycle + 1)
            return true;
        activateAt(earliest);
    }
    return false;
}

} // namespace f4t::core
