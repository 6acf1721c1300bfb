/**
 * @file
 * Per-flow timer module (Section 4.1.2): retransmission, zero-window
 * probe, delayed-ACK, and TIME_WAIT deadlines. Expiry produces a
 * timeout event into the scheduler, which treats it like any other
 * event (accumulated by overwriting — only the occurrence matters,
 * Section 4.2.1).
 */

#ifndef F4T_CORE_TIMER_WHEEL_HH
#define F4T_CORE_TIMER_WHEEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"
#include "tcp/tcb.hh"

namespace f4t::core
{

class TimerWheel : public sim::SimObject
{
  public:
    using TimeoutSink = std::function<void(const tcp::TcpEvent &)>;

    TimerWheel(sim::Simulation &sim, std::string name)
        : SimObject(sim, std::move(name)),
          timeoutsFired_(sim.stats(), statName("timeoutsFired"),
                         "timeout events generated")
    {}

    void setSink(TimeoutSink sink) { sink_ = std::move(sink); }

    /** Apply a TimerRequest from an FPU pass (deadline 0 = cancel). */
    void
    program(const tcp::TimerRequest &request)
    {
        Key key{request.flow, request.kind};
        if (key.flow >= generations_.size())
            generations_.resize(key.flow + 1);
        std::uint64_t generation = ++slot(key);
        if (request.deadlineUs == 0)
            return; // cancelled: the generation bump squashes any firing

        sim::Tick when = static_cast<sim::Tick>(request.deadlineUs) *
                         1'000'000ULL;
        if (when < now())
            when = now();
        queue().scheduleCallback(when, sim::prof::Cat::timerWheel,
                                 "timer.fire", [this, key, generation] {
            if (slot(key) != generation)
                return;
            tcp::TcpEvent event;
            event.flow = key.flow;
            event.type = tcp::TcpEventType::timeout;
            event.timeoutKind = key.kind;
            ++timeoutsFired_;
            probe(sim::fr::Kind::timerFire, key.flow,
                  static_cast<std::uint64_t>(key.kind));
            if (sink_)
                sink_(event);
        });
    }

    /** Drop every timer of a recycled flow. The generation bump (not
     *  a reset) guarantees stale callbacks can never match a timer
     *  re-armed after the flow ID is reused. */
    void
    cancelAll(tcp::FlowId flow)
    {
        if (flow >= generations_.size())
            return; // never armed: no callback can be pending
        for (std::uint64_t &generation : generations_[flow])
            ++generation;
    }

  private:
    struct Key
    {
        tcp::FlowId flow;
        tcp::TimeoutKind kind;
    };

    static constexpr std::size_t numKinds =
        static_cast<std::size_t>(tcp::TimeoutKind::timeWait) + 1;

    std::uint64_t &
    slot(const Key &key)
    {
        return generations_[key.flow][static_cast<std::size_t>(key.kind)];
    }

    TimeoutSink sink_;
    /** Arm generation per (flow, kind), indexed by FlowId and grown on
     *  demand, so it stays within the engine's maxFlows. A callback
     *  fires only while its generation is still current. */
    std::vector<std::array<std::uint64_t, numKinds>> generations_;
    sim::Counter timeoutsFired_;
};

} // namespace f4t::core

#endif // F4T_CORE_TIMER_WHEEL_HH
