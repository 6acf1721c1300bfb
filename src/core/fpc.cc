#include "fpc.hh"

#include <bit>
#include <iterator>

namespace f4t::core
{

using tcp::EventFlags;
using tcp::EventValid;

namespace
{

/** How an absorbed TCP event kind is observed: its fine-grained
 *  profiling bucket and its probe kind. */
struct EventProbe
{
    tcp::TcpEventType type;
    sim::prof::Cat category;
    sim::fr::Kind record;
};

/** Indexed by TcpEventType. */
constexpr EventProbe eventProbes[] = {
    {tcp::TcpEventType::userSend, sim::prof::Cat::fpcUserSend,
     sim::fr::Kind::fpcUserSend},
    {tcp::TcpEventType::userRecv, sim::prof::Cat::fpcUserRecv,
     sim::fr::Kind::fpcUserRecv},
    {tcp::TcpEventType::userConnect, sim::prof::Cat::fpcUserConnect,
     sim::fr::Kind::fpcUserConnect},
    {tcp::TcpEventType::userClose, sim::prof::Cat::fpcUserClose,
     sim::fr::Kind::fpcUserClose},
    {tcp::TcpEventType::rxSegment, sim::prof::Cat::fpcRxSegment,
     sim::fr::Kind::fpcRxSegment},
    {tcp::TcpEventType::timeout, sim::prof::Cat::fpcTimeout,
     sim::fr::Kind::fpcTimeout},
};

constexpr bool
probesCoverEveryType()
{
    for (std::size_t i = 0; i < std::size(eventProbes); ++i) {
        if (static_cast<std::size_t>(eventProbes[i].type) != i)
            return false;
    }
    return std::size(eventProbes) ==
           static_cast<std::size_t>(tcp::TcpEventType::timeout) + 1;
}
static_assert(probesCoverEveryType(),
              "eventProbes must list every TcpEventType in order");

} // namespace

Fpc::Fpc(sim::Simulation &sim, std::string name, sim::ClockDomain &domain,
         const tcp::FpuProgram &program, const FpcConfig &config)
    : ClockedObject(sim, std::move(name), domain, sim::prof::Cat::fpcExec),
      program_(program), config_(config),
      fpuLatency_(config.fpuLatencyOverride ? config.fpuLatencyOverride
                                            : program.latencyCycles()),
      occupiedBits_((config.slots + 63) / 64, 0),
      inFpuBits_((config.slots + 63) / 64, 0),
      evictBits_((config.slots + 63) / 64, 0),
      eventsValidBits_((config.slots + 63) / 64, 0),
      lastActiveCycle_(config.slots, 0),
      slotFlow_(config.slots, tcp::invalidFlowId),
      tcbTable_(config.slots), eventTable_(config.slots),
      cam_(config.slots),
      eventsHandled_(sim.stats(), statName("eventsHandled"),
                     "events absorbed by the event handler"),
      fpuPasses_(sim.stats(), statName("fpuPasses"),
                 "TCBs issued through the FPU"),
      evictions_(sim.stats(), statName("evictions"),
                 "TCBs evicted toward DRAM"),
      swapIns_(sim.stats(), statName("swapIns"), "TCBs accepted from DRAM"),
      dupAckIncrements_(sim.stats(), statName("dupAckIncrements"),
                        "single-cycle duplicate-ACK RMW operations")
{
    f4t_assert(config_.slots > 0, "FPC needs at least one slot");
    sim.registerAudit(this, statName("audit"),
                      [this] { auditInvariants(); });
}

Fpc::~Fpc()
{
    sim().deregisterAudits(this);
}

void
Fpc::auditInvariants() const
{
    std::size_t occupied = 0;
    std::size_t evicting = 0;
    for (std::size_t i = 0; i < config_.slots; ++i) {
        // The two derived bits are maintained mirrors of the BRAM
        // contents; recount them against the tables. The event-record
        // mirror holds for every slot (release paths clear the table);
        // the TCB table is left stale on release, so its mirror is
        // only meaningful — and only read — while the slot is occupied.
        F4T_CHECK(testBit(eventsValidBits_, i) ==
                      (eventTable_.peek(i).validMask != 0),
                  "%s: slot %zu event-valid mirror diverged from the "
                  "event table", name().c_str(), i);
        if (!testBit(occupiedBits_, i)) {
            F4T_CHECK(!testBit(inFpuBits_, i) && !testBit(evictBits_, i),
                      "%s: empty slot %zu carries live flags",
                      name().c_str(), i);
            F4T_CHECK(slotFlow_[i] == tcp::invalidFlowId,
                      "%s: empty slot %zu still names flow %u",
                      name().c_str(), i, slotFlow_[i]);
            continue;
        }
        ++occupied;
        evicting += testBit(evictBits_, i) ? 1 : 0;
        F4T_CHECK(slotFlow_[i] != tcp::invalidFlowId,
                  "%s: occupied slot %zu without a flow", name().c_str(),
                  i);
        F4T_CHECK(cam_.contains(slotFlow_[i]) &&
                      cam_.lookup(slotFlow_[i]) == i,
                  "%s: slot %zu holds flow %u but the CAM disagrees",
                  name().c_str(), i, slotFlow_[i]);
    }
    F4T_CHECK(occupied == cam_.occupancy(),
              "%s: %zu occupied slots vs CAM occupancy %zu",
              name().c_str(), occupied, cam_.occupancy());
    F4T_CHECK(evicting == pendingEvictions_,
              "%s: %zu evict-flagged slots vs maintained counter %zu",
              name().c_str(), evicting, pendingEvictions_);

    for (std::size_t i = 0; i < fpuPipe_.size(); ++i) {
        const FpuJob &job = fpuPipe_.at(i);
        F4T_CHECK(testBit(occupiedBits_, job.slotIndex) &&
                      testBit(inFpuBits_, job.slotIndex) &&
                      slotFlow_[job.slotIndex] == job.flow,
                  "%s: FPU job for flow %u references slot %zu "
                  "(occupied=%d inFpu=%d flow=%u)", name().c_str(),
                  job.flow, job.slotIndex,
                  testBit(occupiedBits_, job.slotIndex) ? 1 : 0,
                  testBit(inFpuBits_, job.slotIndex) ? 1 : 0,
                  slotFlow_[job.slotIndex]);
    }

    for (std::size_t i = 0; i < inputFifo_.size(); ++i) {
        F4T_CHECK(cam_.contains(inputFifo_.at(i).flow),
                  "%s: queued event for non-resident flow %u",
                  name().c_str(), inputFifo_.at(i).flow);
    }
}

void
Fpc::enqueueEvent(const tcp::TcpEvent &event)
{
    f4t_assert(canAcceptEvent(), "%s: event enqueued past backpressure",
               name().c_str());
    f4t_assert(cam_.contains(event.flow),
               "%s: event for non-resident flow %u", name().c_str(),
               event.flow);
    inputFifo_.push_back(event);
    activate();
}

bool
Fpc::canAcceptTcb() const
{
    if (cam_.full())
        return false;
    // Dedicated write port: one swap-in per two-cycle window.
    return !installUsedThisWindow_ ||
           curCycle() >= lastInstallCycle_ + 2;
}

void
Fpc::installTcb(const MigratingTcb &incoming)
{
    f4t_assert(canAcceptTcb(), "%s: swap-in past backpressure",
               name().c_str());
    std::size_t slot_index = cam_.insert(incoming.tcb.flowId);
    assignBit(occupiedBits_, slot_index, true);
    assignBit(inFpuBits_, slot_index, false);
    assignBit(evictBits_, slot_index, false);
    assignBit(eventsValidBits_, slot_index, incoming.events.validMask != 0);
    slotFlow_[slot_index] = incoming.tcb.flowId;
    lastActiveCycle_[slot_index] = curCycle();
    tcbTable_.peekMutable(slot_index) = incoming.tcb;
    eventTable_.peekMutable(slot_index) = incoming.events;
    lastInstallCycle_ = curCycle();
    installUsedThisWindow_ = true;
    ++swapIns_;
    probe(sim::fr::Kind::fpcInstall, incoming.tcb.flowId, slot_index);
    activate();
}

void
Fpc::requestEvict(tcp::FlowId flow)
{
    std::size_t slot_index = cam_.lookup(flow);
    if (!testBit(evictBits_, slot_index)) {
        assignBit(evictBits_, slot_index, true);
        ++pendingEvictions_;
    }
    activate();
}

std::optional<tcp::FlowId>
Fpc::coldestFlow() const
{
    std::optional<tcp::FlowId> coldest;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::size_t w = 0; w < occupiedBits_.size(); ++w) {
        std::uint64_t cand = occupiedBits_[w] & ~inFpuBits_[w] &
                             ~evictBits_[w];
        while (cand != 0) {
            std::size_t i =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(cand));
            cand &= cand - 1;
            if (lastActiveCycle_[i] < best) {
                best = lastActiveCycle_[i];
                coldest = slotFlow_[i];
            }
        }
    }
    return coldest;
}

void
Fpc::releaseFlow(tcp::FlowId flow)
{
    std::size_t slot_index = cam_.lookup(flow);
    f4t_assert(!testBit(inFpuBits_, slot_index),
               "%s: releasing flow %u while in the FPU", name().c_str(),
               flow);
    if (testBit(evictBits_, slot_index))
        --pendingEvictions_;
    recycleSlot(slot_index);
    eventTable_.peekMutable(slot_index).clear();
    cam_.erase(flow);
}

tcp::Tcb
Fpc::peekMergedTcb(tcp::FlowId flow) const
{
    std::size_t slot_index = cam_.lookup(flow);
    return tcp::merge(tcbTable_.peek(slot_index),
                      eventTable_.peek(slot_index));
}

bool
Fpc::slotEligible(std::size_t index) const
{
    // Pure bit tests: eventsValidBits_ mirrors the event table
    // (`validMask != 0`), maintained at every table write site. The
    // audit recounts the mirror.
    return testBit(occupiedBits_, index) && !testBit(inFpuBits_, index) &&
           (testBit(evictBits_, index) || testBit(eventsValidBits_, index));
}

void
Fpc::recycleSlot(std::size_t index)
{
    assignBit(occupiedBits_, index, false);
    assignBit(inFpuBits_, index, false);
    assignBit(evictBits_, index, false);
    assignBit(eventsValidBits_, index, false);
    lastActiveCycle_[index] = 0;
    slotFlow_[index] = tcp::invalidFlowId;
}

std::size_t
Fpc::firstEligibleFrom(std::size_t from) const
{
    const std::size_t words = occupiedBits_.size();
    const std::size_t w0 = from >> 6;
    std::uint64_t word =
        eligibleWord(w0) & (~std::uint64_t{0} << (from & 63));
    for (std::size_t w = w0;;) {
        if (word != 0)
            return (w << 6) +
                   static_cast<std::size_t>(std::countr_zero(word));
        if (++w == words)
            break;
        word = eligibleWord(w);
    }
    // Wrap around: the bits strictly below `from`.
    for (std::size_t w = 0; w <= w0; ++w) {
        std::uint64_t wd = eligibleWord(w);
        if (w == w0)
            wd &= (from & 63) != 0
                      ? ~std::uint64_t{0} >> (64 - (from & 63))
                      : 0;
        if (wd != 0)
            return (w << 6) +
                   static_cast<std::size_t>(std::countr_zero(wd));
    }
    return config_.slots;
}

bool
Fpc::fifoHoldsFlow(tcp::FlowId flow) const
{
    for (std::size_t i = 0; i < inputFifo_.size(); ++i) {
        if (inputFifo_.at(i).flow == flow)
            return true;
    }
    return false;
}

bool
Fpc::tick()
{
    sim::Cycles cycle = curCycle();
    tcbTable_.newCycle(cycle);
    eventTable_.newCycle(cycle);
    if (cycle >= lastInstallCycle_ + 2)
        installUsedThisWindow_ = false;

    // The round-robin scan advances one slot per dotted cycle in the
    // modeled hardware, whether or not this object ticked on that
    // cycle. Fast-forward naps (below) skip host events for cycles
    // proven idle; catch the pointer up for the dotted cycles that
    // elapsed since the last tick before this cycle's phase runs.
    if (cycle > rrSyncedCycle_) {
        std::uint64_t dotted_skipped =
            cycle / 2 - (rrSyncedCycle_ + 1) / 2;
        if (dotted_skipped != 0)
            rrIndex_ = (rrIndex_ + dotted_skipped) % config_.slots;
    }
    rrSyncedCycle_ = cycle;

    const bool even_phase = (cycle & 1) == 0;

    if (even_phase) {
        // Solid cycle: the event handler absorbs one event.
        if (!inputFifo_.empty()) {
            tcp::TcpEvent event = inputFifo_.front();
            inputFifo_.pop_front();
            handleEvent(event, cycle);
        }
    } else {
        // Dotted cycle: FPU write-back, then the TCB manager examines
        // the next round-robin slot and issues it if it has work.
        if (!fpuPipe_.empty() && fpuPipe_.front().readyCycle <= cycle) {
            // Write back straight from the pipe slot: a FpuJob carries
            // a whole TCB, not worth an extra move. Nothing reached
            // from writeback() touches fpuPipe_ (only issueSlot(),
            // called below, pushes to it).
            writeback(fpuPipe_.front(), cycle);
            fpuPipe_.pop_front();
        }

        std::size_t index = rrIndex_;
        if (++rrIndex_ == config_.slots)
            rrIndex_ = 0;
        if (slotEligible(index))
            issueSlot(index, cycle);
    }

    // Events in flight: tick every cycle, no shortcut possible.
    if (!inputFifo_.empty())
        return true;

    // Nothing left for the solid phase. The next cycle that can do
    // work is a dotted one: either the pending FPU write-back, or the
    // first dotted cycle whose round-robin examine lands on an
    // eligible slot. Every path that creates new work in between
    // (enqueueEvent, installTcb, requestEvict) calls activate(), which
    // cuts the nap short, so sleeping to that cycle is exact — the
    // skipped ticks would have examined only ineligible slots.
    sim::Cycles next_dotted = cycle | 1;
    if (next_dotted <= cycle)
        next_dotted += 2;
    sim::Cycles wake = 0;
    if (!fpuPipe_.empty()) {
        wake = fpuPipe_.front().readyCycle | 1;
        if (wake < next_dotted)
            wake = next_dotted;
    }
    std::size_t first = firstEligibleFrom(rrIndex_);
    if (first < config_.slots) {
        std::size_t k = first >= rrIndex_
                            ? first - rrIndex_
                            : first + config_.slots - rrIndex_;
        sim::Cycles examine = next_dotted + 2 * k;
        if (wake == 0 || examine < wake)
            wake = examine;
    }
    if (wake == 0)
        return false; // fully idle; activate() rearms
    if (wake == cycle + 1)
        return true;
    activateAt(wake);
    return false;
}

void
Fpc::handleEvent(const tcp::TcpEvent &event, sim::Cycles cycle)
{
    // The dual-memory port schedule (Section 4.2.3): events are only
    // absorbed on solid (even) cycles, so no two events of this FPC can
    // ever be closer than two cycles apart — the paper's stall-free
    // 1-event-per-2-cycles occupancy claim.
    F4T_CHECK((cycle & 1) == 0,
              "%s: event absorbed on a dotted cycle %llu", name().c_str(),
              static_cast<unsigned long long>(cycle));
    F4T_IF_CHECKS({
        F4T_CHECK(!anyEventHandled_ || cycle >= lastEventCycle_ + 2,
                  "%s: events absorbed %llu cycles apart (min 2)",
                  name().c_str(),
                  static_cast<unsigned long long>(cycle - lastEventCycle_));
        lastEventCycle_ = cycle;
        anyEventHandled_ = true;
    });
    // Nested under the FPC tick's module scope: self-time accounting
    // moves this event's cost out of fpc_exec into its kind bucket.
    const EventProbe &row =
        eventProbes[static_cast<std::size_t>(event.type)];
    sim::prof::Scope event_scope(row.category);
    ++eventsHandled_;
    // Word b: the cumulative pointer the event carries (rcvUpTo for a
    // segment); the span builder joins requests on it (obs/spans.hh).
    probe(row.record, event.flow, cycle,
          event.type == tcp::TcpEventType::rxSegment ? event.rcvUpTo
                                                     : event.pointer);
    std::size_t index = cam_.lookup(event.flow);
    lastActiveCycle_[index] = cycle;

    // The handler reads both memories every cycle for its merged view
    // (needed for single-cycle duplicate-ACK detection); the event
    // record update is the BRAM's single-cycle RMW.
    tcp::EventRecord &record = eventTable_.readModifyWrite(index);
    const tcp::Tcb &stored = tcbTable_.read(index);
    if (tcp::accumulateEvent(record, stored, event))
        ++dupAckIncrements_;
    assignBit(eventsValidBits_, index, record.validMask != 0);
}

void
Fpc::issueSlot(std::size_t index, sim::Cycles cycle)
{
    sim::prof::Scope pass_scope(sim::prof::Cat::fpcFpuPass);
    FpuJob &job = fpuPipe_.push_default();
    // Merge straight into the pipe slot: one table read into the job
    // plus the in-place event overlay, no intermediate TCB copy.
    job.merged = tcbTable_.read(index);
    tcp::mergeInto(job.merged, eventTable_.read(index));
    // Clearing the valid bits is the event table's write this cycle.
    tcp::EventRecord cleared;
    eventTable_.peekMutable(index) = cleared;
    assignBit(eventsValidBits_, index, false);

    assignBit(inFpuBits_, index, true);
    ++fpuPasses_;
    job.readyCycle = cycle + fpuLatency_;
    job.slotIndex = index;
    job.flow = slotFlow_[index];
    // The merged cumulative pointers show which requests the pass
    // covers.
    probe(sim::fr::Kind::fpuIssue, job.flow, job.merged.req,
          job.merged.rcvNxt);
}

void
Fpc::writeback(FpuJob &job, sim::Cycles cycle)
{
    sim::prof::Scope pass_scope(sim::prof::Cat::fpcFpuPass);
    f4t_assert(testBit(occupiedBits_, job.slotIndex) &&
                   slotFlow_[job.slotIndex] == job.flow,
               "%s: write-back to a recycled slot", name().c_str());

    tcp::FpuActions actions;
    program_.process(job.merged, nowUs(), actions);

    // One span per FPU pass, from entering the pipe fpuLatency_ cycles
    // ago to this write-back.
    probeSpan(sim::fr::Kind::fpuPass, job.flow, job.slotIndex,
              testBit(evictBits_, job.slotIndex),
              clock().cyclesToTicks(job.readyCycle - fpuLatency_), now());

    F4T_IF_CHECKS({
        tcp::checkTcbInvariants(job.merged, name().c_str());
        // Cumulative pointers never regress across an FPU pass once the
        // connection is synchronized (sndNxt may: go-back-N on RTO).
        const tcp::Tcb &prev = tcbTable_.peek(job.slotIndex);
        if (tcp::stateSynchronized(prev.state) &&
            tcp::stateSynchronized(job.merged.state)) {
            F4T_CHECK(net::seqGeq(job.merged.sndUna, prev.sndUna),
                      "%s: flow %u sndUna regressed %u -> %u",
                      name().c_str(), job.flow, prev.sndUna,
                      job.merged.sndUna);
            F4T_CHECK(net::seqGeq(job.merged.rcvNxt, prev.rcvNxt),
                      "%s: flow %u rcvNxt regressed %u -> %u",
                      name().c_str(), job.flow, prev.rcvNxt,
                      job.merged.rcvNxt);
            F4T_CHECK(net::seqGeq(job.merged.req, prev.req),
                      "%s: flow %u req regressed %u -> %u",
                      name().c_str(), job.flow, prev.req, job.merged.req);
            F4T_CHECK(net::seqGeq(job.merged.userRead, prev.userRead),
                      "%s: flow %u userRead regressed %u -> %u",
                      name().c_str(), job.flow, prev.userRead,
                      job.merged.userRead);
        }
    });

    assignBit(inFpuBits_, job.slotIndex, false);
    lastActiveCycle_[job.slotIndex] = cycle;

    if (actions.releaseFlow) {
        // Connection finished: recycle the slot.
        if (testBit(evictBits_, job.slotIndex))
            --pendingEvictions_;
        eventTable_.peekMutable(job.slotIndex).clear();
        cam_.erase(job.flow);
        recycleSlot(job.slotIndex);
    } else if (testBit(evictBits_, job.slotIndex) &&
               !fifoHoldsFlow(job.flow)) {
        // Evict checker: forward the processed TCB toward DRAM without
        // consuming a table write port. Events that accumulated since
        // the pass started travel with it.
        MigratingTcb leaving;
        leaving.tcb = job.merged;
        leaving.events = eventTable_.peek(job.slotIndex);
        eventTable_.peekMutable(job.slotIndex).clear();
        cam_.erase(job.flow);
        recycleSlot(job.slotIndex);
        --pendingEvictions_;
        ++evictions_;
        probe(sim::fr::Kind::fpcEvict, job.flow, job.slotIndex);
        if (evictSink_)
            evictSink_(std::move(leaving));
    } else {
        tcbTable_.write(job.slotIndex, job.merged);
    }

    if (actionSink_ && !actions.empty())
        actionSink_(job.flow, std::move(actions));
}

} // namespace f4t::core
