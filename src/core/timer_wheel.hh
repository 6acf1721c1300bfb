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
#include <deque>
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

    /** Pending arms leave the queue in one sweep. Without it, each
     *  arm's ~Event would forget() itself with a sweep of its own,
     *  quadratic in the arms pending. With none pending the queue is
     *  not touched, as in ~Event: it may already be gone. */
    ~TimerWheel() override
    {
        bool pending = false;
        for (Arm &arm : arms_) {
            if (arm.scheduled()) {
                queue().deschedule(&arm);
                pending = true;
            }
        }
        if (pending)
            queue().compact();
    }

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
        Arm *arm = acquireArm();
        arm->key = key;
        arm->generation = generation;
        queue().schedule(arm, when);
    }

    /** Drop every timer of a recycled flow. The generation bump (not
     *  a reset) guarantees stale arms can never match a timer re-armed
     *  after the flow ID is reused. */
    void
    cancelAll(tcp::FlowId flow)
    {
        if (flow >= generations_.size())
            return; // never armed: no arm can be pending
        for (std::uint64_t &generation : generations_[flow])
            ++generation;
    }

    /** Arm events ever constructed: the peak number pending at once. */
    std::size_t armsAllocated() const { return arms_.size(); }

  private:
    struct Key
    {
        tcp::FlowId flow;
        tcp::TimeoutKind kind;
    };

    /** One pending deadline. A re-arm or cancel leaves the old arm
     *  queued; it fires as a no-op when its generation is stale. */
    struct Arm : sim::Event
    {
        explicit Arm(TimerWheel &owner)
            : Event(defaultPriority, sim::prof::Cat::timerWheel),
              wheel(owner)
        {}
        void process() override { wheel.fire(*this); }
        std::string description() const override { return "timer.fire"; }

        TimerWheel &wheel;
        Key key{};
        std::uint64_t generation = 0;
        Arm *nextFree = nullptr;
    };
    static_assert(sizeof(Arm) == 80, "an arm is an Event plus 32 bytes");

    static constexpr std::size_t numKinds =
        static_cast<std::size_t>(tcp::TimeoutKind::timeWait) + 1;

    std::uint64_t &
    slot(const Key &key)
    {
        return generations_[key.flow][static_cast<std::size_t>(key.kind)];
    }

    Arm *
    acquireArm()
    {
        if (freeArms_ == nullptr)
            return &arms_.emplace_back(*this);
        Arm *arm = freeArms_;
        freeArms_ = arm->nextFree;
        return arm;
    }

    void
    fire(Arm &arm)
    {
        Key key = arm.key;
        std::uint64_t generation = arm.generation;
        arm.nextFree = freeArms_;
        freeArms_ = &arm;

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
    }

    TimeoutSink sink_;
    /** Arm generation per (flow, kind), indexed by FlowId and grown on
     *  demand, so it stays within the engine's maxFlows. An arm fires
     *  only while its generation is still current. */
    std::vector<std::array<std::uint64_t, numKinds>> generations_;
    /** Arm arena (stable addresses) and its free list, threaded
     *  through the fired arms. */
    std::deque<Arm> arms_;
    Arm *freeArms_ = nullptr;
    sim::Counter timeoutsFired_;
};

} // namespace f4t::core

#endif // F4T_CORE_TIMER_WHEEL_HH
