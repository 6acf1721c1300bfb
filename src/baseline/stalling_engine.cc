#include "stalling_engine.hh"

namespace f4t::baseline
{

StallingEngine::StallingEngine(sim::Simulation &sim, std::string name,
                               sim::ClockDomain &domain,
                               const tcp::FpuProgram &program,
                               const StallingEngineConfig &config)
    // Charged as FPC work: this engine is the FPC stand-in of the
    // stall comparisons (Figs. 2, 15 and 16b).
    : ClockedObject(sim, std::move(name), domain, sim::prof::Cat::fpcExec),
      program_(program), config_(config),
      processed_(sim.stats(), statName("eventsProcessed"),
                 "events processed (one at a time)"),
      stallCyclesTotal_(sim.stats(), statName("stallCycles"),
                        "cycles spent stalled for RMW atomicity")
{}

tcp::FlowId
StallingEngine::createSyntheticFlow(std::uint32_t peer_window)
{
    f4t_assert(tcbs_.size() < config_.maxFlows,
               "%s: SRAM full (%zu flows)", name().c_str(),
               config_.maxFlows);
    tcp::FlowId flow = nextFlow_++;

    tcp::Tcb tcb;
    tcb.flowId = flow;
    tcb.iss = tcp::FpuProgram::initialSequence(flow);
    tcb.sndUna = tcb.iss;
    tcb.sndUnaProcessed = tcb.iss;
    tcb.sndNxt = tcb.iss + 1;
    tcb.req = tcb.iss + 1;
    tcb.lastAckNotified = tcb.iss + 1;
    tcb.state = tcp::ConnState::established;
    tcb.sndWnd = peer_window;
    tcb.cwnd = peer_window;
    tcb.ssthresh = peer_window;
    tcb.ccPhase = tcp::CcPhase::congestionAvoidance;
    tcb.rcvNxt = 1;
    tcb.userRead = 1;
    tcb.lastAckSent = 1;
    tcb.lastRcvNotified = 1;
    tcbs_.emplace(flow, tcb);
    return flow;
}

void
StallingEngine::injectEvent(const tcp::TcpEvent &event)
{
    input_.push_back(event);
    activate();
}

bool
StallingEngine::tick()
{
    if (busy_ > 0) {
        --busy_;
        ++stallCyclesTotal_;
        return true;
    }
    if (input_.empty())
        return false;

    tcp::TcpEvent event = input_.front();
    input_.pop_front();

    auto it = tcbs_.find(event.flow);
    f4t_assert(it != tcbs_.end(), "%s: event for unknown flow %u",
               name().c_str(), event.flow);
    tcp::Tcb &tcb = it->second;

    // The whole RMW is atomic: accumulate, merge, process, write back,
    // then stall until the pipeline drains.
    tcp::EventRecord record;
    tcp::accumulateEvent(record, tcb, event);
    tcp::Tcb merged = tcp::merge(tcb, record);

    tcp::FpuActions actions;
    program_.process(merged, now() / 1'000'000, actions);
    tcb = merged;
    ++processed_;

    if (actionSink_ && !actions.empty())
        actionSink_(event.flow, std::move(actions));

    busy_ = stallCycles + config_.fpuLatency - 1;
    return true;
}

} // namespace f4t::baseline
