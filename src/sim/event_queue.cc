#include "event_queue.hh"

#include "sim/flight_recorder.hh"
#include "sim/simulation.hh" // ClockedObject::TickEvent (tagged dispatch)

#include <algorithm>
#include <bit>

namespace f4t::sim
{

namespace
{

/** Occupancy bitmap geometry: one bit per granule bucket. */
constexpr std::size_t bitsWords = EventQueue::numBuckets / 64;
static_assert(EventQueue::numBuckets % 64 == 0,
              "ladder buckets must fill whole bitmap words");

} // namespace

Event::~Event()
{
    // Detach fully, not just deschedule: lazy removal may have left
    // squashed entries naming this event, and any entry surviving the
    // destructor would dangle (isLive dereferences the event). When no
    // entry names the event, the queue is not touched at all — it may
    // legitimately have been destroyed first.
    if (queue_ != nullptr && (scheduled_ || staleEntries_ > 0))
        queue_->forget(this);
}

EventQueue::EventQueue()
    : buckets_(numBuckets, nullptr), tails_(numBuckets, nullptr),
      bits_(bitsWords, 0)
{}

EventQueue::~EventQueue()
{
    // Entries may still reference events. Live self-deleting callback
    // events belong to our arena: drop their captured state now. Any
    // live external event is detached so its own destructor does not
    // call back into this dying queue.
    auto retire = [](Node &n) {
        Event *ev = n.event;
        bool live = ev->scheduled_ && n.generation == ev->generation_;
        if (live) {
            if (n.selfDeleting)
                static_cast<CallbackEvent *>(ev)->fn_.reset();
            ev->scheduled_ = false;
        }
        // Detach squashed entries' events too, so their destructors
        // do not call forget() on this dying queue.
        ev->queue_ = nullptr;
    };
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        for (Node *n = buckets_[b]; n != nullptr; n = n->next)
            retire(*n);
    }
    for (const HeapEntry &e : heap_) {
        Node as_node{e.when, e.seq, e.generation, e.event, nullptr,
                     e.priority, e.selfDeleting};
        retire(as_node);
    }
}

// --- pools ----------------------------------------------------------------

EventQueue::Node *
EventQueue::acquireNode()
{
    if (freeNodes_ != nullptr) {
        Node *n = freeNodes_;
        freeNodes_ = n->next;
        return n;
    }
    nodeArena_.emplace_back();
    return &nodeArena_.back();
}

void
EventQueue::releaseNode(Node *node)
{
    node->event = nullptr;
    node->next = freeNodes_;
    freeNodes_ = node;
}

EventQueue::CallbackEvent *
EventQueue::acquireCallback()
{
    if (freeCallbacks_ != nullptr) {
        CallbackEvent *ev = freeCallbacks_;
        freeCallbacks_ = ev->nextFree_;
        ev->nextFree_ = nullptr;
        --freeCallbackCount_;
        return ev;
    }
    callbackArena_.emplace_back();
    return &callbackArena_.back();
}

void
EventQueue::recycleCallback(CallbackEvent *ev)
{
    // Drop the captured state eagerly: callbacks routinely hold whole
    // packets, and those buffers must return to their pools now, not
    // when this pool slot happens to be reused.
    ev->fn_.reset();
    ev->what_ = "callback";
    ev->queue_ = nullptr;
    ev->nextFree_ = freeCallbacks_;
    freeCallbacks_ = ev;
    ++freeCallbackCount_;
}

// --- ladder bitmap --------------------------------------------------------

void
EventQueue::setBit(std::size_t idx)
{
    bits_[idx >> 6] |= 1ULL << (idx & 63);
}

void
EventQueue::clearBit(std::size_t idx)
{
    bits_[idx >> 6] &= ~(1ULL << (idx & 63));
}

std::size_t
EventQueue::findBucketFrom(std::size_t from) const
{
    // The bitmap is 32 words (four cache lines): a straight scan timed
    // no slower than a one-word summary level on any perfbench workload.
    if (from >= numBuckets)
        return numBuckets;
    std::size_t word = from >> 6;
    std::uint64_t w = bits_[word] & (~0ULL << (from & 63));
    while (w == 0) {
        if (++word >= bitsWords)
            return numBuckets;
        w = bits_[word];
    }
    return (word << 6) + std::countr_zero(w);
}

// --- scheduling -----------------------------------------------------------

void
EventQueue::insertLadder(Tick when, int priority, std::uint64_t seq,
                         std::uint64_t generation, Event *ev,
                         bool self_deleting)
{
    std::size_t idx =
        static_cast<std::size_t>(when - ladderBase_) >> granuleShift;
    Node *n = acquireNode();
    *n = Node{when, seq, generation, ev, nullptr, priority, self_deleting};

    Node *tail = tails_[idx];
    if (tail == nullptr) {
        buckets_[idx] = tails_[idx] = n;
        setBit(idx);
    } else if (!keyBefore(*n, *tail)) {
        // Ascending keys — clock ticks marching forward, same-tick
        // callbacks with rising seq — append in O(1).
        tail->next = n;
        tails_[idx] = n;
    } else {
        // Out-of-order arrival within the granule: sorted insert.
        Node **link = &buckets_[idx];
        while (*link != nullptr && !keyBefore(*n, **link))
            link = &(*link)->next;
        n->next = *link;
        *link = n;
    }
    ++ladderNodes_;
}

void
EventQueue::push(Event *ev, Tick when, bool self_deleting)
{
    f4t_assert(when >= now_,
               "scheduling event '%s' in the past (%llu < %llu)",
               ev->description().c_str(),
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now_));
    f4t_assert(!ev->scheduled_, "event '%s' already scheduled",
               ev->description().c_str());

    ev->when_ = when;
    ev->scheduled_ = true;
    ev->queue_ = this;
    std::uint64_t seq = nextSeq_++;

    if (!inWindow(when) && ladderNodes_ == 0 && heap_.empty() &&
        deadEntries_ == 0) {
        // Containers are empty: snap the window onto this event so it
        // (and its short-horizon successors) schedule O(1).
        ladderBase_ = when;
        cursor_ = 0;
    }

    if (inWindow(when)) {
        insertLadder(when, ev->priority_, seq, ev->generation_, ev,
                     self_deleting);
    } else {
        heap_.push_back(HeapEntry{when, seq, ev->generation_, ev,
                                  ev->priority_, self_deleting});
        std::push_heap(heap_.begin(), heap_.end(), HeapCompare{});
    }
    ++liveEvents_;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled_)
        return;
    ++ev->generation_;
    ev->scheduled_ = false;
    f4t_assert(liveEvents_ > 0, "live event count underflow");
    --liveEvents_;
    // Lazy removal: the generation bump above squashes the entry.
    ++deadEntries_;
    ++ev->staleEntries_;
    maybeCompact();
}

void
EventQueue::forget(Event *ev)
{
    deschedule(ev);

    // Purge every squashed entry still naming the event. This runs
    // only from ~Event — object teardown, never the hot path — so a
    // full container sweep is acceptable.
    for (std::size_t word = 0; word < bitsWords; ++word) {
        std::uint64_t w = bits_[word];
        while (w != 0) {
            std::size_t b = (word << 6) + std::countr_zero(w);
            w &= w - 1;
            Node **link = &buckets_[b];
            Node *last = nullptr;
            while (Node *n = *link) {
                if (n->event != ev) {
                    last = n;
                    link = &n->next;
                    continue;
                }
                *link = n->next;
                --ladderNodes_;
                droppedDead(ev);
                releaseNode(n);
            }
            tails_[b] = last;
            if (buckets_[b] == nullptr)
                clearBit(b);
        }
    }

    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (heap_[i].event != ev) {
            heap_[kept++] = heap_[i];
        } else {
            droppedDead(ev);
        }
    }
    if (kept != heap_.size()) {
        heap_.resize(kept);
        std::make_heap(heap_.begin(), heap_.end(), HeapCompare{});
    }

    f4t_assert(ev->staleEntries_ == 0,
               "forget left %u stale entries for event '%s'",
               ev->staleEntries_, ev->description().c_str());
    ev->queue_ = nullptr;
    checkAccounting();
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::scheduleCallback(Tick when, prof::Cat cost, const char *what,
                             SmallFunction fn, int priority)
{
    CallbackEvent *ev = acquireCallback();
    ev->fn_ = std::move(fn);
    ev->what_ = what;
    ev->priority_ = priority;
    ev->cost_ = cost;
    push(ev, when, true);
}

// --- squash handling ------------------------------------------------------

void
EventQueue::skipSquashed()
{
    while (!heap_.empty() && !isLive(heap_.front())) {
        Event *dead = heap_.front().event;
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
        droppedDead(dead);
    }
}

void
EventQueue::maybeCompact()
{
    // Compact once squashed entries outnumber live ones (with a floor
    // so small queues never bother). Each compaction drops at least
    // half of all entries, so the amortized cost per deschedule is
    // O(1) and container growth is bounded by the live population.
    if (deadEntries_ > 64 && deadEntries_ > liveEvents_)
        compact();
}

void
EventQueue::compact()
{
    // Ladder sweep: unlink squashed nodes bucket by bucket, rebuilding
    // each bucket's tail pointer as we go.
    for (std::size_t word = 0; word < bitsWords; ++word) {
        std::uint64_t w = bits_[word];
        while (w != 0) {
            std::size_t b = (word << 6) + std::countr_zero(w);
            w &= w - 1;
            Node **link = &buckets_[b];
            Node *last = nullptr;
            while (Node *n = *link) {
                if (isLive(*n)) {
                    last = n;
                    link = &n->next;
                    continue;
                }
                *link = n->next;
                --ladderNodes_;
                droppedDead(n->event);
                releaseNode(n);
            }
            tails_[b] = last;
            if (buckets_[b] == nullptr)
                clearBit(b);
        }
    }

    // Heap sweep: filter in place, then restore the heap property.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (isLive(heap_[i])) {
            heap_[kept++] = heap_[i];
        } else {
            droppedDead(heap_[i].event);
        }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), HeapCompare{});

    checkAccounting();
#ifndef NDEBUG
    // Full recount: the cheap counter identity can hide paired
    // mistakes, so debug builds re-derive both sides from scratch.
    std::size_t live = 0, dead = 0, nodes = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        for (Node *n = buckets_[b]; n != nullptr; n = n->next) {
            ++nodes;
            (isLive(*n) ? live : dead) += 1;
        }
    }
    for (const HeapEntry &e : heap_)
        (isLive(e) ? live : dead) += 1;
    f4t_assert(nodes == ladderNodes_, "ladder node recount mismatch");
    f4t_assert(live == liveEvents_, "live event recount mismatch");
    f4t_assert(dead == deadEntries_, "dead entry recount mismatch");
#endif
}

void
EventQueue::checkAccounting() const
{
#ifndef NDEBUG
    f4t_assert(liveEvents_ + deadEntries_ == ladderNodes_ + heap_.size(),
               "event accounting mismatch: %zu live + %zu dead != "
               "%zu ladder + %zu heap",
               liveEvents_, deadEntries_, ladderNodes_, heap_.size());
#endif
}

// --- popping --------------------------------------------------------------

void
EventQueue::rebaseLadder()
{
    f4t_assert(ladderNodes_ == 0, "rebase with a non-empty ladder");
    f4t_assert(!heap_.empty() && isLive(heap_.front()),
               "rebase needs a live heap top");
    ladderBase_ = heap_.front().when;
    cursor_ = 0;
    // Batch refill: move every heap entry inside the new window into
    // its bucket. The front entry lands in bucket 0, so the ladder is
    // guaranteed non-empty afterwards.
    while (!heap_.empty() && inWindow(heap_.front().when)) {
        HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
        if (!isLive(top)) {
            droppedDead(top.event);
            continue;
        }
        insertLadder(top.when, top.priority, top.seq, top.generation,
                     top.event, top.selfDeleting);
    }
}

EventQueue::Candidate
EventQueue::findCandidate()
{
    while (true) {
        std::size_t b = findBucketFrom(cursor_);
        if (b < numBuckets) {
            // The chain is sorted, so the head is the bucket minimum;
            // squashed entries are pruned as they surface there.
            Node *n = buckets_[b];
            while (n != nullptr && !isLive(*n)) {
                buckets_[b] = n->next;
                --ladderNodes_;
                droppedDead(n->event);
                releaseNode(n);
                n = buckets_[b];
            }
            if (n == nullptr) {
                // Bucket held only squashed entries; the cleared bit
                // makes the rescan skip it. cursor_ must not advance:
                // this granule may still be in the future and could
                // be scheduled into again.
                tails_[b] = nullptr;
                clearBit(b);
                continue;
            }
            return Candidate{b, n};
        }

        // Ladder empty: rebase the window onto the earliest heap
        // entry, or report an empty queue.
        skipSquashed();
        if (heap_.empty())
            return Candidate{};
        rebaseLadder();
    }
}

void
EventQueue::fire(Event *ev, Tick when, bool self_deleting)
{
    f4t_assert(when >= now_, "event queue time went backwards");
    now_ = when;
    ev->scheduled_ = false;
    f4t_assert(liveEvents_ > 0, "live event count underflow");
    --liveEvents_;
    ++processed_;
    // Black box + watchdog heartbeat. The record is the flight
    // recorder's hot-path cost contract (relaxed store + index bump);
    // the beat piggybacks on the existing dispatch counter so the
    // watchdog sees progress without another atomic on every fire.
    fr::record(fr::Kind::evDispatch, when, 0, 0,
               static_cast<std::uint64_t>(ev->priority_), processed_);
    if ((processed_ & 0x3fff) == 0)
        fr::beat();
    {
        prof::Scope event_scope(ev->cost_);
        dispatch(ev);
    }
    if (self_deleting)
        recycleCallback(static_cast<CallbackEvent *>(ev));
}

void
EventQueue::dispatch(Event *ev)
{
    // Tagged-union hot path: the two shapes that account for nearly
    // every fire — pooled callbacks and ClockedObject ticks — are
    // reached through a switch on the kind byte and a direct call.
    // Both bodies are what their virtual process() runs; `generic`
    // takes the virtual path.
    switch (ev->kind_) {
      case EventKind::callback:
        static_cast<CallbackEvent *>(ev)->fn_();
        return;
      case EventKind::tick:
        static_cast<ClockedObject::TickEvent *>(ev)->run();
        return;
      case EventKind::generic:
        break;
    }
    ev->process();
}

bool
EventQueue::runOne(Tick limit)
{
    checkAccounting();
    Candidate cand = findCandidate();
    skipSquashed();
    if (cand.node == nullptr && heap_.empty())
        return false;

    // The ladder window normally precedes every heap entry, but an
    // event scheduled below a rebased window lands in the heap, so the
    // global minimum needs one comparison between the two fronts.
    bool use_heap = cand.node == nullptr;
    if (!use_heap && !heap_.empty())
        use_heap = keyBefore(heap_.front(), *cand.node);

    Tick when;
    Event *ev;
    bool self_deleting;
    if (use_heap) {
        if (heap_.front().when > limit)
            return false;
        HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
        when = top.when;
        ev = top.event;
        self_deleting = top.selfDeleting;
    } else {
        Node *n = cand.node;
        if (n->when > limit)
            return false;
        buckets_[cand.bucket] = n->next;
        --ladderNodes_;
        if (buckets_[cand.bucket] == nullptr) {
            tails_[cand.bucket] = nullptr;
            clearBit(cand.bucket);
        }
        // Nothing can be scheduled before this event's tick once it
        // fires, so the scan may start here permanently.
        cursor_ = cand.bucket;
        when = n->when;
        ev = n->event;
        self_deleting = n->selfDeleting;
        releaseNode(n);
    }

    fire(ev, when, self_deleting);
    return true;
}

} // namespace f4t::sim
