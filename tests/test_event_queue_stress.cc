/**
 * @file
 * Stress tests for the two-level (ladder + far heap) event queue and
 * the kernel's recycling pools.
 *
 * The queue promises two observable behaviors: events pop in
 * (tick, priority, insertion sequence) order, identical to a single
 * global priority queue, and after run(limit) nextEventLowerBound() is
 * the earliest pending tick exactly (the parallel executor starts its
 * windows there), as it is after compact(). The randomized test here
 * drives schedule / deschedule / reschedule / runOne / run(limit) /
 * compact at mixed horizons — spanning the ladder granules, window
 * rebases, and the far heap out to RTO-scale deadlines — and
 * cross-checks every fired event and every post-run or post-compact
 * bound against a std::multimap reference model that implements the
 * contract directly.
 *
 * The pool tests pin down the steady-state-allocation-free property:
 * callback events and payload buffers must recycle rather than grow
 * their arenas.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "net/payload_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace f4t::sim
{
namespace
{

/** Reference ordering key, mirroring the queue's contract. */
using RefKey = std::tuple<Tick, int, std::uint64_t>;

struct FiredRecord
{
    Tick when;
    int id;
};

struct StressEvent : Event
{
    using Event::Event;
    int id = -1;
    const EventQueue *queue = nullptr;
    std::vector<FiredRecord> *log = nullptr;
    void process() override { log->push_back({queue->now(), id}); }
};

TEST(EventQueueStress, RandomizedAgainstReferenceModel)
{
    // Events must outlive the queue: squashed entries referencing them
    // can survive inside the containers until destruction.
    constexpr int numEvents = 48;
    constexpr int priorities[] = {Event::clockPriority,
                                  Event::defaultPriority,
                                  Event::statsPriority};
    std::deque<StressEvent> events;

    EventQueue queue;
    std::vector<FiredRecord> log;
    Random rng(0xF47F47);

    // id -> reference entry for scheduled events; multimap carries the
    // authoritative fire order.
    std::multimap<RefKey, int> ref;
    std::map<int, std::multimap<RefKey, int>::iterator> byId;
    std::uint64_t seqCounter = 0;

    for (int i = 0; i < numEvents; ++i) {
        StressEvent &ev = events.emplace_back(priorities[i % 3]);
        ev.id = i;
        ev.queue = &queue;
        ev.log = &log;
    }

    // Horizon mix: same-granule, in-window, a few windows out, deep
    // heap territory (forces batched rebases when reached), and
    // RTO-scale deadlines (milliseconds, hundreds of windows out).
    auto random_when = [&]() -> Tick {
        switch (rng.below(9)) {
        case 0:
        case 1:
        case 2:
            return queue.now() + rng.below(64);
        case 3:
        case 4:
        case 5:
            return queue.now() + rng.below(EventQueue::ladderSpan);
        case 6:
            return queue.now() + rng.below(4 * EventQueue::ladderSpan);
        case 7:
            return queue.now() + rng.below(64 * EventQueue::ladderSpan);
        default:
            return queue.now() + rng.below(microsecondsToTicks(6000));
        }
    };

    // Every event fired since the last check, in fire order, must be
    // the reference model's front at that point.
    auto check_fired = [&]() {
        for (const FiredRecord &fired : log) {
            ASSERT_FALSE(ref.empty());
            auto front = ref.begin();
            EXPECT_EQ(fired.id, front->second);
            EXPECT_EQ(fired.when, std::get<0>(front->first));
            byId.erase(front->second);
            ref.erase(front);
        }
        log.clear();
    };

    for (int op = 0; op < 50000; ++op) {
        int id = static_cast<int>(rng.below(numEvents));
        StressEvent &ev = events[id];
        switch (rng.below(16)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
        case 5: // schedule
            if (!ev.scheduled()) {
                Tick when = random_when();
                queue.schedule(&ev, when);
                auto it = ref.emplace(RefKey{when, ev.priority(),
                                             seqCounter++},
                                      id);
                byId[id] = it;
            }
            break;
        case 6:
        case 7: // deschedule
            if (ev.scheduled()) {
                queue.deschedule(&ev);
                ref.erase(byId.at(id));
                byId.erase(id);
            }
            break;
        case 8:
        case 9: // reschedule (works scheduled or not)
        {
            Tick when = random_when();
            queue.reschedule(&ev, when);
            if (auto it = byId.find(id); it != byId.end())
                ref.erase(it->second);
            byId[id] = ref.emplace(RefKey{when, ev.priority(),
                                          seqCounter++},
                                   id);
            break;
        }
        case 10: // run(limit), then the bound must be exact
        {
            Tick limit = random_when();
            queue.run(limit);
            check_fired();
            if (::testing::Test::HasFailure())
                return;
            EXPECT_EQ(queue.now(), limit);
            Tick earliest = ref.empty() ? maxTick
                                        : std::get<0>(ref.begin()->first);
            ASSERT_EQ(queue.nextEventLowerBound(), earliest);
            break;
        }
        case 11: // drop every squashed entry mid-run
        {
            queue.compact();
            ASSERT_EQ(queue.squashedEntries(), 0u);
            Tick earliest = ref.empty() ? maxTick
                                        : std::get<0>(ref.begin()->first);
            ASSERT_EQ(queue.nextEventLowerBound(), earliest);
            break;
        }
        default: // run one event
            if (queue.runOne()) {
                ASSERT_EQ(log.size(), 1u);
                check_fired();
                if (::testing::Test::HasFailure())
                    return;
            }
            break;
        }
        ASSERT_EQ(queue.size(), ref.size());
    }

    // Drain: the remaining events must fire in exact reference order.
    while (queue.runOne()) {
        check_fired();
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_TRUE(ref.empty());
}

TEST(EventQueueStress, SingleEventMetronome)
{
    // The steady state of a saturated pipeline: exactly one live
    // self-rescheduling event. Must stay exactly ordered across
    // thousands of laps, including laps longer than the ladder window.
    EventQueue queue;
    Tick expect = 0;
    int fired = 0;
    for (int lap = 0; lap < 5000; ++lap) {
        Tick step = (lap % 7 == 0) ? EventQueue::ladderSpan + 17 : 4000;
        expect += step;
        queue.scheduleCallback(expect, [&] { ++fired; });
        ASSERT_TRUE(queue.runOne());
        ASSERT_EQ(queue.now(), expect);
    }
    EXPECT_EQ(fired, 5000);
    EXPECT_TRUE(queue.empty());
    // One pooled callback event serviced the whole run.
    EXPECT_EQ(queue.callbackPoolAllocated(), 1u);
    EXPECT_EQ(queue.callbackPoolFree(), 1u);
}

TEST(EventQueueStress, CallbackPoolRecyclesAcrossBursts)
{
    EventQueue queue;
    int fired = 0;

    // First burst sets the pool's high-water mark...
    for (int i = 0; i < 64; ++i)
        queue.scheduleCallback(queue.now() + 10 + i, [&] { ++fired; });
    queue.run();
    std::size_t high_water = queue.callbackPoolAllocated();
    EXPECT_GE(high_water, 64u);
    EXPECT_EQ(queue.callbackPoolFree(), high_water);

    // ...and every later burst of the same width reuses it.
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 64; ++i)
            queue.scheduleCallback(queue.now() + 10 + i, [&] { ++fired; });
        queue.run();
    }
    EXPECT_EQ(fired, 64 * 101);
    EXPECT_EQ(queue.callbackPoolAllocated(), high_water);
    EXPECT_EQ(queue.callbackPoolFree(), high_water);
}

TEST(PayloadPool, RecyclesBuffersByDelta)
{
    // The pool is process-wide, so measure deltas from the current
    // state rather than absolute counts.
    auto &pool = net::PayloadBufferPool::instance();
    {
        net::PayloadBuffer warm(1500);
    }
    std::size_t base_allocated = pool.allocated();
    std::size_t base_outstanding = pool.outstanding();

    for (int i = 0; i < 1000; ++i) {
        net::PayloadBuffer p(1500);
        p[0] = static_cast<std::uint8_t>(i);
    }
    // Sequential buffers all reused one pooled vector.
    EXPECT_EQ(pool.allocated(), base_allocated);
    EXPECT_EQ(pool.outstanding(), base_outstanding);
}

TEST(PayloadPool, LiveBuffersNeverShareStorage)
{
    net::PayloadBuffer a(64);
    a[0] = 0xAA;
    net::PayloadBuffer b(64);
    b[0] = 0xBB;
    // A buffer still referenced must never be handed out again.
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(a[0], 0xAA);

    net::PayloadBuffer copy(a);
    EXPECT_NE(copy.data(), a.data());
    EXPECT_EQ(copy[0], 0xAA);

    const std::uint8_t *storage = a.data();
    net::PayloadBuffer moved(std::move(a));
    EXPECT_EQ(moved.data(), storage); // moves steal, never copy
    EXPECT_TRUE(a.empty());
}

TEST(PayloadPool, VectorMoveDonatesCapacity)
{
    auto &pool = net::PayloadBufferPool::instance();
    std::vector<std::uint8_t> v(4096, 0x5A);
    const std::uint8_t *storage = v.data();
    std::size_t outstanding = pool.outstanding();
    net::PayloadBuffer p(std::move(v));
    EXPECT_EQ(p.data(), storage);
    EXPECT_EQ(p.size(), 4096u);
    EXPECT_EQ(pool.outstanding(), outstanding + 1);
}

} // namespace
} // namespace f4t::sim
