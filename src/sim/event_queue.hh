/**
 * @file
 * Discrete-event simulation queue.
 *
 * The queue orders Event objects by (tick, priority, insertion
 * sequence). Storage is two-level:
 *
 *  - a near-future "ladder" of granule buckets covering a window of
 *    ladderSpan ticks (~2 µs in 1024-tick buckets, found through an
 *    occupancy bitmap). The overwhelmingly common short-horizon
 *    events — clock ticks, link serialization slots, DRAM/PCIe/DMA
 *    completions — schedule and pop in O(1) with no heap traffic.
 *    Each bucket chain is kept sorted by the queue key, with a tail
 *    pointer so the dominant in-order insertion pattern appends in
 *    O(1);
 *  - a far-future binary heap backing the ladder. When the ladder
 *    drains, the window is rebased onto the earliest heap entry and
 *    every heap entry inside the new window is transferred in one
 *    batch.
 *
 * Because the ladder window always precedes every heap entry, the
 * pop order is identical to a single global heap: same (tick,
 * priority, seq) total order, bit-for-bit. That determinism invariant
 * is what lets the two-level design replace the original
 * std::priority_queue without perturbing any simulated result.
 *
 * Events are intrusive: an Event remembers whether it is scheduled so
 * it can be safely rescheduled or descheduled. Descheduling is lazy —
 * the entry stays in its container with a squashed generation counter
 * and is dropped when encountered — with one addition over the
 * classic scheme: when squashed entries outnumber live ones the queue
 * compacts, so descheduling churn can no longer grow the containers
 * unboundedly.
 *
 * One-shot callbacks (scheduleCallback) draw their event objects from
 * a free-list pool, and the callable lives in small-buffer-optimized
 * storage inside the pooled event, so the simulator's hottest path —
 * packet delivery and completion callbacks — never touches the
 * allocator in steady state.
 *
 * Lifetime rule: because descheduling is lazy, a descheduled Event
 * may still be referenced by a squashed entry. ~Event therefore calls
 * forget(), which purges every entry naming the event — an Event may
 * be destroyed at any time without leaving a dangling pointer behind.
 * The queue itself must outlive any event that was ever scheduled on
 * it; in practice, make events members of modules that live no longer
 * than the Simulation (the usual gem5 convention).
 */

#ifndef F4T_SIM_EVENT_QUEUE_HH
#define F4T_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/profile_scope.hh"
#include "sim/small_function.hh"
#include "sim/types.hh"

namespace f4t::sim
{

class EventQueue;

/**
 * Dispatch tag for the hot-path tagged-union representation: the two
 * event shapes that dominate every run — pooled one-shot callbacks and
 * ClockedObject ticks — carry a kind byte so the queue can dispatch
 * them with a switch and a direct (inlinable) call instead of a
 * virtual process(). Everything else stays `generic` and takes the
 * virtual path; cold/rare event types never need to opt in.
 */
enum class EventKind : std::uint8_t
{
    generic,  ///< dispatch through virtual process()
    callback, ///< EventQueue::CallbackEvent — invoke the SmallFunction
    tick,     ///< ClockedObject::TickEvent — run the tick/re-arm logic
};

/**
 * Base class for all schedulable events. Subclasses implement process().
 * An Event may be scheduled on at most one queue at a time.
 */
class Event
{
  public:
    /** Lower value runs first among events at the same tick. */
    enum Priority : int
    {
        clockPriority = 0,     ///< per-cycle module ticks
        defaultPriority = 50,  ///< ordinary events
        statsPriority = 90,    ///< end-of-interval bookkeeping
    };

    /** @p cost is the profile category fire() charges this event's
     *  body to (sim/profile_scope.hh). */
    explicit Event(int priority = defaultPriority,
                   prof::Cat cost = prof::Cat::otherEvent)
        : priority_(priority), cost_(cost)
    {}
    virtual ~Event();

  protected:
    /** For the known hot subclasses: tag the event for switch dispatch
     *  (see EventKind). The tag must match the dynamic type — fire()
     *  static_casts on it. */
    Event(int priority, EventKind kind, prof::Cat cost)
        : priority_(priority), kind_(kind), cost_(cost)
    {}

  public:

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event fires. */
    virtual void process() = 0;

    /** Human-readable description for debugging. */
    virtual std::string description() const { return "generic event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    int priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    int priority_;
    EventKind kind_ = EventKind::generic;
    prof::Cat cost_; ///< one byte, in the padding beside kind_
    bool scheduled_ = false;
    std::uint64_t generation_ = 0; ///< bumped on deschedule to squash
    /** Squashed container entries still naming this event. */
    std::uint32_t staleEntries_ = 0;
    EventQueue *queue_ = nullptr;
};

/**
 * The global time-ordered event queue. One instance per Simulation.
 */
class EventQueue
{
  public:
    /**
     * Width of the near-future window in ticks (one tick = 1 ps, so
     * ~2.1 µs). Wide enough that link serialization, PCIe and DMA
     * completion horizons schedule into the ladder; RTO-scale deadlines
     * take one batch trip through the far heap. Must be a power of two.
     */
    static constexpr std::size_t ladderSpan = std::size_t{1} << 21;

    /** log2 of the bucket granule in ticks: each ladder bucket covers
     *  2^granuleShift ticks (~1 ns, a fraction of an engine or network
     *  clock period). */
    static constexpr std::size_t granuleShift = 10;

    /** Number of ladder buckets (the occupancy bitmap is 32 words). */
    static constexpr std::size_t numBuckets = ladderSpan >> granuleShift;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p ev at absolute tick @p when (>= now). */
    void schedule(Event *ev, Tick when) { push(ev, when, false); }

    /** Remove a scheduled event; no-op if it is not scheduled. */
    void deschedule(Event *ev);

    /**
     * Deschedule and purge every container entry naming @p ev, live
     * or squashed, so no dangling pointer survives the event's
     * destruction. Called by ~Event; O(containers), teardown-only.
     */
    void forget(Event *ev);

    /**
     * Drop every squashed entry from both containers in one sweep.
     * An owner tearing down many scheduled events deschedules them
     * all and then calls this once, so their destructors find no
     * entry to forget() one sweep at a time. Pop order is unchanged;
     * nextEventLowerBound() is exact afterwards.
     */
    void compact();

    /** Deschedule if needed and schedule at the new time. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callback on a pooled event, charged to the
     * profile category @p cost. @p what is a call-site tag that
     * assertion messages report; it must point to storage that
     * outlives the callback (string literals by convention).
     */
    void scheduleCallback(Tick when, prof::Cat cost, const char *what,
                          SmallFunction fn,
                          int priority = Event::defaultPriority);

    /** Untagged convenience overload (tests, ad-hoc callbacks). */
    void
    scheduleCallback(Tick when, SmallFunction fn,
                     int priority = Event::defaultPriority)
    {
        scheduleCallback(when, prof::Cat::otherEvent, "callback",
                         std::move(fn), priority);
    }

    /** True when no live events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /**
     * Conservative lower bound on the next live event's tick: exact
     * when the earliest container entry is live, possibly early when
     * squashed entries lead it (the safe direction — callers may only
     * use this to skip idle time, never to run past it); maxTick when
     * no live event remains. O(1), no container mutation: the parallel
     * executor polls every partition's queue at each window barrier.
     */
    Tick
    nextEventLowerBound() const
    {
        if (liveEvents_ == 0)
            return maxTick;
        Tick bound = maxTick;
        std::size_t bucket = findBucketFrom(cursor_);
        if (bucket < numBuckets)
            bound = buckets_[bucket]->when;
        if (!heap_.empty() && heap_.front().when < bound)
            bound = heap_.front().when;
        return bound;
    }

    /** Number of live (non-squashed) scheduled events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Run events until the queue drains or simulated time would pass
     * @p limit. Events scheduled exactly at @p limit still run.
     * @return the tick at which the run stopped.
     */
    Tick
    run(Tick limit = maxTick)
    {
        // Root profiling scope: queue bookkeeping (ladder scans, heap
        // ops, pops) accrues here as self time once per-event scopes
        // subtract themselves out; its elapsed total is the wall time
        // the per-category attribution must sum to.
        prof::Scope profile_root(prof::Cat::eventQueue);
        while (runOne(limit)) {
        }
        if (now_ < limit && limit != maxTick)
            now_ = limit;
        return now_;
    }

    /** Run exactly one event if any is pending within @p limit. */
    bool runOne(Tick limit = maxTick);

    /** Total number of events processed since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    // --- introspection (tests, perf harnesses) --------------------------

    /** Callback events ever constructed (pool high-water mark). */
    std::size_t callbackPoolAllocated() const { return callbackArena_.size(); }
    /** Callback events currently parked on the free list. */
    std::size_t callbackPoolFree() const { return freeCallbackCount_; }
    /** Squashed entries not yet dropped from either container. */
    std::size_t squashedEntries() const { return deadEntries_; }

  private:
    // Entry fields are ordered widest first so the two narrow ones
    // share one tail word: every pending timer arm holds a heap entry.

    /** A scheduled occurrence; doubles as a ladder chain node. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *event;
        Node *next;
        int priority;
        bool selfDeleting;
    };
    static_assert(sizeof(Node) == 48, "Node must pack to 48 bytes");

    /** Far-future heap entry (same ordering key, no chain pointer). */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *event;
        int priority;
        bool selfDeleting;
    };
    static_assert(sizeof(HeapEntry) == 40,
                  "HeapEntry must pack to 40 bytes");

    struct HeapCompare
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** Pooled one-shot callback event (see scheduleCallback). */
    class CallbackEvent : public Event
    {
      public:
        CallbackEvent()
            : Event(defaultPriority, EventKind::callback,
                    prof::Cat::otherEvent)
        {}
        void process() override { fn_(); }
        std::string description() const override { return what_; }

      private:
        friend class EventQueue;
        SmallFunction fn_;
        const char *what_ = "callback";
        CallbackEvent *nextFree_ = nullptr;
    };

    template <typename EntryT>
    static bool
    isLive(const EntryT &entry)
    {
        return entry.event->scheduled_ &&
               entry.generation == entry.event->generation_;
    }

    bool inWindow(Tick when) const
    {
        return when - ladderBase_ < ladderSpan;
    }

    /** Strict (when, priority, seq) ordering between two entries. */
    template <typename A, typename B>
    static bool
    keyBefore(const A &a, const B &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    void push(Event *ev, Tick when, bool self_deleting);
    void insertLadder(Tick when, int priority, std::uint64_t seq,
                      std::uint64_t generation, Event *ev,
                      bool self_deleting);
    /** Shared fire tail: pop bookkeeping + process + recycle. */
    void fire(Event *ev, Tick when, bool self_deleting);
    /** Invoke the event body: EventKind switch or virtual process(). */
    void dispatch(Event *ev);

    Node *acquireNode();
    void releaseNode(Node *node);
    CallbackEvent *acquireCallback();
    void recycleCallback(CallbackEvent *ev);

    /** Drop a dead entry's bookkeeping (shared by all removal paths). */
    void
    droppedDead(Event *ev)
    {
        f4t_assert(deadEntries_ > 0, "dead entry count underflow");
        f4t_assert(ev->staleEntries_ > 0, "stale entry count underflow");
        --deadEntries_;
        --ev->staleEntries_;
    }

    void setBit(std::size_t idx);
    void clearBit(std::size_t idx);
    /** First non-empty bucket at or after @p from; ladderSpan if none. */
    std::size_t findBucketFrom(std::size_t from) const;

    /** Pop squashed entries off the heap top. */
    void skipSquashed();
    /** Move every heap entry inside the new window into the ladder. */
    void rebaseLadder();
    void maybeCompact();
    /** Counter cross-check; full recount only in debug builds. */
    void checkAccounting() const;

    /**
     * Locate the next live entry: a bucket index + its head node, or
     * node == nullptr when the ladder (and, after rebase attempts,
     * the heap) is empty. Prunes dead head entries on the way.
     */
    struct Candidate
    {
        std::size_t bucket = 0;
        Node *node = nullptr;
    };
    Candidate findCandidate();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t liveEvents_ = 0;
    std::size_t deadEntries_ = 0;

    // Ladder state. Each bucket holds a singly linked chain, sorted
    // by (when, priority, seq), of the entries inside its granule
    // (the window is exactly one span wide, so bucket indices cannot
    // alias). The sorted order makes the head the bucket minimum, and
    // the per-bucket tail pointer makes the common ascending-key
    // insertion an O(1) append.
    Tick ladderBase_ = 0;
    std::size_t cursor_ = 0; ///< no non-empty bucket below this index
    std::size_t ladderNodes_ = 0;
    std::vector<Node *> buckets_;
    std::vector<Node *> tails_;
    std::vector<std::uint64_t> bits_;

    // Far-future heap (std::make_heap family, min entry at front).
    std::vector<HeapEntry> heap_;

    // Node and callback-event pools. Deques give stable addresses;
    // free lists are threaded through the objects themselves.
    std::deque<Node> nodeArena_;
    Node *freeNodes_ = nullptr;
    std::deque<CallbackEvent> callbackArena_;
    CallbackEvent *freeCallbacks_ = nullptr;
    std::size_t freeCallbackCount_ = 0;
};

} // namespace f4t::sim

#endif // F4T_SIM_EVENT_QUEUE_HH
