/**
 * @file
 * The w-RMW baseline accelerator (Sections 3.1 and 5.4): an FPGA TCP
 * engine in the style of Limago [44] that keeps TCP atomicity by
 * stalling between events of any flow.
 *
 * It runs at 322 MHz and occupies the pipeline for
 * (stallCycles + fpuLatency) cycles per event — 17 cycles with the
 * reference single-cycle algorithm, reproducing the ~19 M events/s
 * ceiling the paper attributes to RMW stalls. Functionally it applies
 * exactly the same event accumulation and FPU program as F4T, so the
 * two designs differ only in their processing architecture — which is
 * the paper's point.
 */

#ifndef F4T_BASELINE_STALLING_ENGINE_HH
#define F4T_BASELINE_STALLING_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"
#include "tcp/tcb.hh"

namespace f4t::baseline
{

struct StallingEngineConfig
{
    /** TCP algorithm processing latency (17 total at the default 1). */
    unsigned fpuLatency = 1;
    std::size_t maxFlows = 1024; ///< SRAM-only designs support ~1 K
};

class StallingEngine : public sim::ClockedObject
{
  public:
    /** Cycles of stall per event on top of the processing latency. */
    static constexpr unsigned stallCycles = 16;

    using ActionSink =
        std::function<void(tcp::FlowId, tcp::FpuActions &&)>;

    StallingEngine(sim::Simulation &sim, std::string name,
                   sim::ClockDomain &domain,
                   const tcp::FpuProgram &program,
                   const StallingEngineConfig &config);

    void setActionSink(ActionSink sink) { actionSink_ = std::move(sink); }

    /** A pre-established flow with a wide-open window. */
    tcp::FlowId createSyntheticFlow(std::uint32_t peer_window = 1u << 30);

    /** Queue an event; the engine stalls between each one. */
    void injectEvent(const tcp::TcpEvent &event);

    std::uint64_t eventsProcessed() const { return processed_.value(); }
    std::size_t backlog() const { return input_.size(); }

    /** Occupancy per event in cycles (for analytic cross-checks). */
    unsigned cyclesPerEvent() const
    {
        return stallCycles + config_.fpuLatency;
    }

    const tcp::Tcb &tcb(tcp::FlowId flow) const { return tcbs_.at(flow); }

  protected:
    bool tick() override;

  private:
    const tcp::FpuProgram &program_;
    StallingEngineConfig config_;
    ActionSink actionSink_;

    std::deque<tcp::TcpEvent> input_;
    std::unordered_map<tcp::FlowId, tcp::Tcb> tcbs_;
    tcp::FlowId nextFlow_ = 0;
    unsigned busy_ = 0;

    sim::Counter processed_;
    sim::Counter stallCyclesTotal_;
};

} // namespace f4t::baseline

#endif // F4T_BASELINE_STALLING_ENGINE_HH
