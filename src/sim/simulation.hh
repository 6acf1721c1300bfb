/**
 * @file
 * Simulation: the root object owning the event queue, the statistics
 * registry, and the clock domains used by every model in a run.
 */

#ifndef F4T_SIM_SIMULATION_HH
#define F4T_SIM_SIMULATION_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/flight_recorder.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace f4t::sim
{

/** A named clock with a fixed period, shared by clocked objects. */
class ClockDomain
{
  public:
    ClockDomain(std::string name, double frequency_hz, EventQueue &queue)
        : name_(std::move(name)), period_(periodFromFrequency(frequency_hz)),
          reciprocal_(period_ > 1 ? ~Tick{0} / period_ : 0), queue_(queue)
    {
        f4t_assert(period_ > 0, "clock domain '%s' has zero period",
                   name_.c_str());
    }

    const std::string &name() const { return name_; }
    Tick period() const { return period_; }
    double frequency() const
    {
        return static_cast<double>(ticksPerSecond) /
               static_cast<double>(period_);
    }

    /** Cycle count at the current tick (cycle 0 starts at tick 0). */
    Cycles curCycle() const { return ticksToCycles(queue_.now()); }

    /**
     * First clock edge strictly after the current tick, plus @p ahead
     * additional cycles. An object that ticks itself every cycle calls
     * clockEdge() from within its tick handler to get the next edge.
     */
    Tick
    clockEdge(Cycles ahead = 0) const
    {
        Tick now = queue_.now();
        Tick next = (ticksToCycles(now) + 1) * period_;
        return next + ahead * period_;
    }

    /** Convert a cycle count to a duration in ticks. */
    Tick cyclesToTicks(Cycles c) const { return c * period_; }

    /**
     * Exact @p t / period. The divisor is loop-invariant for the life
     * of the domain and this quotient sits on the hottest path in the
     * simulator (every ClockedObject tick computes it several times),
     * so it is done as a reciprocal multiply — one widening multiply
     * plus a fix-up — instead of a hardware 64-bit divide.
     */
    Cycles
    ticksToCycles(Tick t) const
    {
        if (period_ == 1)
            return t;
        // reciprocal_ underestimates 2^64/period by < 2, so the
        // estimated quotient is off by at most 2; repair by remainder.
        Cycles q = static_cast<Cycles>(
            (static_cast<unsigned __int128>(t) * reciprocal_) >> 64);
        Tick rem = t - q * period_;
        while (rem >= period_) {
            rem -= period_;
            ++q;
        }
        return q;
    }

  private:
    std::string name_;
    Tick period_;
    Tick reciprocal_; ///< floor((2^64 - 1) / period)
    EventQueue &queue_;
};

/**
 * Root of a simulated system. Construct one per experiment; all modules
 * take a reference and register their events and statistics with it.
 */
class Simulation
{
  public:
    Simulation()
        : engineClock_("clk250", 250e6, queue_),
          netClock_("clk322", 322e6, queue_),
          hostClock_("clk2g3", 2.3e9, queue_)
    {
        // While this simulation is the innermost live one on the
        // thread, warn()/inform() stamp its tick.
        detail::pushCurrentSim(this, [](const void *s) -> std::uint64_t {
            return static_cast<const Simulation *>(s)->now();
        });
        trace::detail::notifySimulationCreated(*this);
    }

    ~Simulation()
    {
        trace::detail::notifySimulationDestroyed(*this);
        detail::popCurrentSim(this);
    }

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &queue() { return queue_; }
    StatRegistry &stats() { return stats_; }

    Tick now() const { return queue_.now(); }

    // --- observability (see sim/trace.hh) -----------------------------------
    /** Timeline sink probes draw into; nullptr when off. */
    trace::TraceEventSink *timeline() { return timeline_; }
    void
    setTimeline(trace::TraceEventSink *sink)
    {
        timeline_ = sink;
        observed_ = timeline_ != nullptr || capture_ != nullptr;
    }

    /** Whole-run capture every probe record is appended to, in call
     *  order (the span builder's input, obs/spans.hh); nullptr when
     *  off. In memory only. */
    std::vector<fr::Record> *capture() { return capture_; }
    void
    setCapture(std::vector<fr::Record> *records)
    {
        capture_ = records;
        observed_ = timeline_ != nullptr || capture_ != nullptr;
    }

    /** A timeline or a capture is attached: probes take the view path.
     *  One flag, so a probe tests both sinks at once. */
    bool observed() const { return observed_; }

    /** 250 MHz FtEngine control-path clock. */
    ClockDomain &engineClock() { return engineClock_; }
    /** 322 MHz Ethernet / data-path clock. */
    ClockDomain &netClock() { return netClock_; }
    /** 2.3 GHz host CPU clock (Xeon Gold 5118). */
    ClockDomain &hostClock() { return hostClock_; }

    /** Run until the queue drains or @p limit is reached. */
    Tick run(Tick limit = maxTick) { return queue_.run(limit); }

    /** Run for a further @p duration ticks of simulated time. */
    Tick runFor(Tick duration) { return queue_.run(now() + duration); }

    // --- invariant audits (see sim/check.hh) --------------------------------
    /**
     * Register a whole-structure invariant audit. @p owner keys later
     * deregistration (a module registers with `this` and deregisters in
     * its destructor). Without F4T_ENABLE_CHECKS the audit is dropped.
     */
    void
    registerAudit(const void *owner, std::string name,
                  std::function<void()> fn)
    {
        if constexpr (checksEnabled)
            audits_.push_back(Audit{owner, std::move(name), std::move(fn)});
        else
            (void)owner, (void)name, (void)fn;
    }

    /** Remove every audit registered by @p owner. */
    void
    deregisterAudits(const void *owner)
    {
        std::erase_if(audits_,
                      [owner](const Audit &a) { return a.owner == owner; });
    }

    /** Run every registered audit immediately. */
    void
    runAudits()
    {
        ++auditRuns_;
        for (const Audit &audit : audits_)
            audit.fn();
    }

    /**
     * Throttled audit entry point for module ticks: runs the audits at
     * most once per audit interval of simulated time. Compiles to
     * nothing when checks are off.
     */
    void
    maybeAudit()
    {
        if constexpr (checksEnabled) {
            if (now() >= nextAuditAt_ && !audits_.empty()) {
                nextAuditAt_ = now() + auditInterval;
                runAudits();
            }
        }
    }

    /** Times runAudits() completed (tests verify audits actually ran). */
    std::uint64_t auditRuns() const { return auditRuns_; }

  private:
    /** Simulated time between audit runs (DESIGN.md §9). */
    static constexpr Tick auditInterval = microsecondsToTicks(50);

    struct Audit
    {
        const void *owner;
        std::string name;
        std::function<void()> fn;
    };

    EventQueue queue_;
    StatRegistry stats_;
    trace::TraceEventSink *timeline_ = nullptr;
    std::vector<fr::Record> *capture_ = nullptr;
    bool observed_ = false;
    ClockDomain engineClock_;
    ClockDomain netClock_;
    ClockDomain hostClock_;
    std::vector<Audit> audits_;
    Tick nextAuditAt_ = 0;
    std::uint64_t auditRuns_ = 0;
};

/** Base class for named simulation modules. */
class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name)
        : sim_(sim), name_(std::move(name)),
          probeModule_(fr::internModule(name_))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulation &sim() { return sim_; }
    const Simulation &sim() const { return sim_; }
    EventQueue &queue() { return sim_.queue(); }
    Tick now() const { return sim_.now(); }

    /** Build a child statistic name: "<object>.<stat>". */
    std::string statName(const std::string &leaf) const
    {
        return name_ + "." + leaf;
    }

    /**
     * The one call of an instrumented site (sim/probe.hh): write a
     * flight-recorder record of @p kind stamped now under this
     * object's module, print it as a trace line when the kind is
     * selected, draw it as a timeline instant when a sink is attached
     * and the kind has a category, and append it to the capture when
     * one is attached.
     */
    void
    probe(fr::Kind kind, std::uint32_t flow, std::uint64_t a = 0,
          std::uint64_t b = 0)
    {
        probeAt(now(), kind, flow, a, b);
    }

    /** probe() stamped @p at: the modeled tick of work the call runs
     *  ahead of (a packet's serialization start on a link). */
    void
    probeAt(Tick at, fr::Kind kind, std::uint32_t flow, std::uint64_t a = 0,
            std::uint64_t b = 0)
    {
        fr::record(kind, at, probeModule_, flow, a, b);
        if (trace::selected(kind) || sim_.observed()) [[unlikely]]
            showProbe({at, a, b, flow, probeModule_,
                       static_cast<std::uint8_t>(kind), 0},
                      at, at, false);
    }

    /** probe() drawn as the timeline span [@p start, @p end]; the
     *  record is stamped now. */
    void
    probeSpan(fr::Kind kind, std::uint32_t flow, std::uint64_t a,
              std::uint64_t b, Tick start, Tick end)
    {
        Tick at = now();
        fr::record(kind, at, probeModule_, flow, a, b);
        if (trace::selected(kind) || sim_.observed()) [[unlikely]]
            showProbe({at, a, b, flow, probeModule_,
                       static_cast<std::uint8_t>(kind), 0},
                      start, end, true);
    }

  private:
    /** The capture, text and timeline views of one record
     *  (sim/probe.cc). */
    [[gnu::cold]] void showProbe(const fr::Record &rec, Tick start, Tick end,
                                 bool span);

    Simulation &sim_;
    std::string name_;
    /** Flight-recorder module id of name_, interned once. */
    std::uint16_t probeModule_;
};

/**
 * A SimObject driven by a clock: subclasses implement tick(), returning
 * true to keep ticking on every subsequent edge and false to go idle.
 * Idle objects consume no simulation events until activate() is called
 * again — crucial for simulation speed with thousands of flows.
 */
class ClockedObject : public SimObject
{
  public:
    /** @p cost is the profile category every tick is charged to. */
    ClockedObject(Simulation &sim, std::string name, ClockDomain &domain,
                  prof::Cat cost)
        : SimObject(sim, std::move(name)), domain_(domain),
          tickEvent_(*this, cost)
    {}

    ~ClockedObject() override
    {
        if (tickEvent_.scheduled())
            queue().deschedule(&tickEvent_);
    }

    ClockDomain &clock() { return domain_; }
    Cycles curCycle() const { return domain_.curCycle(); }

    /**
     * Ensure a tick is scheduled for the next clock edge. An object
     * that parked itself further out with activateAt() is pulled back
     * in: activate() is the "new work arrived" signal and must always
     * win over a fast-forward nap.
     */
    void
    activate()
    {
        Tick edge = domain_.clockEdge();
        if (!tickEvent_.scheduled())
            queue().schedule(&tickEvent_, edge);
        else if (tickEvent_.when() > edge)
            queue().reschedule(&tickEvent_, edge);
    }

    bool active() const { return tickEvent_.scheduled(); }

  protected:
    /** @return true to tick again on the next edge. */
    virtual bool tick() = 0;

    /**
     * Park the object until @p cycle (a fast-forward nap): tick() may
     * call this and return false when it can prove no earlier cycle
     * has work. Any activate() before then wakes it at the next edge.
     */
    void
    activateAt(Cycles cycle)
    {
        Tick when = domain_.cyclesToTicks(cycle);
        if (!tickEvent_.scheduled())
            queue().schedule(&tickEvent_, when);
        else
            queue().reschedule(&tickEvent_, when);
    }

  private:
    friend class EventQueue; ///< tagged dispatch names TickEvent::run()

    struct TickEvent : public Event
    {
        TickEvent(ClockedObject &owner, prof::Cat cost)
            : Event(clockPriority, EventKind::tick, cost), owner_(owner)
        {}

        /**
         * The tick body, non-virtual so the queue's tagged dispatch
         * reaches it with a direct call; process() is the virtual-path
         * spelling of the same thing.
         *
         * This event only ever fires on a clock edge, so the next
         * edge is one period ahead of the fire tick — no need for
         * activate()'s general clockEdge() computation. tick() may
         * have re-armed the event itself via activateAt() (a
         * fast-forward nap), so only schedule here when it has not,
         * and never leave a nap pending past the next edge when
         * tick() asked to run again.
         */
        void
        run()
        {
            Tick fired_at = when();
            bool again = owner_.tick();
            if (!again)
                return;
            Tick next = fired_at + owner_.domain_.period();
            if (!scheduled())
                owner_.queue().schedule(this, next);
            else if (when() > next)
                owner_.queue().reschedule(this, next);
        }

        void process() override { run(); }

        std::string
        description() const override
        {
            return owner_.name() + ".tick";
        }

        ClockedObject &owner_;
    };

    ClockDomain &domain_;
    TickEvent tickEvent_;
};

} // namespace f4t::sim

#endif // F4T_SIM_SIMULATION_HH
