#include "obs/spans.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>

namespace f4t::obs
{

namespace
{

using sim::Tick;
using sim::fr::Kind;

/** Microseconds for histogram samples (Tick is picoseconds). */
double
us(Tick t)
{
    return sim::ticksToSeconds(t) * 1e6;
}

/** A 32-bit stream offset unwrapped against a 64-bit reference within
 *  2^31; negative means before the stream's first byte. */
std::int64_t
unwrap(std::uint64_t reference, std::uint32_t offset)
{
    return static_cast<std::int64_t>(reference) +
           static_cast<std::int32_t>(
               offset - static_cast<std::uint32_t>(reference));
}

} // namespace

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::appQueue: return "appQueue";
      case Stage::doorbell: return "doorbell";
      case Stage::pcie: return "pcie";
      case Stage::fpcQueue: return "fpcQueue";
      case Stage::fpcExec: return "fpcExec";
      case Stage::wire: return "wire";
      case Stage::rxParse: return "rxParse";
      case Stage::upcall: return "upcall";
      case Stage::nStages: break;
    }
    return "?";
}

Tick
Request::sampledTotal() const
{
    Tick total = 0;
    for (const Span &span : spans) {
        if (!span.open && !span.abandoned)
            total += span.duration();
    }
    return total;
}

/**
 * One pass over the capture in record order. Requests of one
 * connection end are kept in target order, so every join walks a
 * prefix of a short list instead of scanning every live request.
 */
class Spans::Builder
{
  public:
    Builder(Spans &out, const std::vector<SpanHost> &hosts,
            std::size_t window_start)
        : out_(out), hosts_(hosts), windowStart_(window_start),
          endpoints_(hosts.size()), byHash_(hosts.size())
    {}

    void
    run(const std::vector<sim::fr::Record> &records)
    {
        for (std::size_t i = 0; i < records.size(); ++i) {
            const sim::fr::Record &rec = records[i];
            const Module &module = resolve(rec.module);
            if (module.role == Role::none)
                continue;
            windowed_ = i >= windowStart_;
            now_ = rec.tick;
            dispatch(module, rec);
        }
    }

  private:
    enum class Role : std::uint8_t { none, engine, runtime, link };

    struct Module
    {
        bool resolved = false;
        Role role = Role::none;
        std::uint32_t host = 0;
    };

    /** A completion posted for the host: its offset and the request
     *  whose delivery it reports (0 = none). */
    struct Posted
    {
        std::uint32_t offset;
        std::uint32_t id;
        bool flushed;
    };

    /** A data segment on its way to the link, and the request whose
     *  target it holds (0 = none). */
    struct TxSegment
    {
        std::uint32_t seq;
        std::uint32_t id;
    };

    /** One end of a connection: (host, local flow). */
    struct Endpoint
    {
        bool live = false;
        std::uint32_t host = 0;
        std::uint32_t hash = 0;
        std::uint32_t txStart = 0;
        Endpoint *peer = nullptr;
        /** Target of its latest request: the unwrap reference for
         *  pointers into its stream. */
        std::uint64_t lastTarget = 0;
        std::uint64_t deliveredRef = 0;
        /** Requests it sent, target order; done ones leave lazily. */
        std::deque<std::uint32_t> out;
        std::deque<std::uint32_t> awaitFetch;
        /** Target-ordered stage lists of its own requests... */
        std::vector<std::uint32_t> awaitAbsorb;
        std::vector<std::uint32_t> awaitIssue;
        /** ...and of the peer's requests that reached it. */
        std::vector<std::uint32_t> inAwaitAbsorb;
        std::vector<std::uint32_t> inAwaitIssue;
        /** Requests the FPU pass in flight covers. */
        std::vector<std::uint32_t> inPass;
        std::deque<TxSegment> txPending;
        std::deque<Posted> posted;
    };

    /** Per-request join state the trees do not keep. */
    struct State
    {
        Endpoint *sender = nullptr;
        /** Index into the spans of the open span per stage, or -1. */
        int open[numStages];
        /** The send command reached the engine. */
        bool fetched = false;
        /** A segment covering it reached the peer. */
        bool bound = false;
    };

    const Module &
    resolve(std::uint16_t id)
    {
        if (id >= modules_.size())
            modules_.resize(id + 1);
        Module &module = modules_[id];
        if (module.resolved)
            return module;
        module.resolved = true;
        std::string name = sim::fr::moduleName(id);
        for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
            const SpanHost &host = hosts_[h];
            Role role = Role::none;
            if (name == host.engine ||
                name.starts_with(host.engine + "."))
                role = Role::engine;
            else if (name == host.runtime)
                role = Role::runtime;
            else if (name == host.txLink)
                role = Role::link;
            if (role != Role::none) {
                module.role = role;
                module.host = h;
                break;
            }
        }
        return module;
    }

    void
    dispatch(const Module &module, const sim::fr::Record &rec)
    {
        std::uint32_t h = module.host;
        auto a32 = static_cast<std::uint32_t>(rec.a);
        auto b32 = static_cast<std::uint32_t>(rec.b);
        if (module.role == Role::link) {
            if (rec.kind == static_cast<std::uint8_t>(Kind::linkTx))
                onLinkTx(h, rec.flow, b32);
            return;
        }
        if (module.role == Role::runtime) {
            if (rec.kind == static_cast<std::uint8_t>(Kind::libSend))
                onLibSend(h, rec.flow, rec.a);
            else if (rec.kind == static_cast<std::uint8_t>(Kind::libDeliver))
                onLibDeliver(h, rec.flow, a32);
            return;
        }
        switch (static_cast<Kind>(rec.kind)) {
          case Kind::engineConnect:
          case Kind::engineAccept:
            onConnect(h, rec.flow, a32, b32);
            break;
          case Kind::engineRecycle:
            onRecycle(h, rec.flow);
            break;
          case Kind::hifFetch:
            onFetch(h, rec.flow, a32, rec.b);
            break;
          case Kind::fpcUserSend:
            onUserSendAbsorb(h, rec.flow, b32);
            break;
          case Kind::fpcRxSegment:
            onRxAbsorb(h, rec.flow, b32);
            break;
          case Kind::fpuIssue:
            onIssue(h, rec.flow, a32, b32);
            break;
          case Kind::fpuPass:
            onPass(h, rec.flow);
            break;
          case Kind::pktgenSegment:
          case Kind::pktgenRetransmit:
            onSegment(h, rec.flow, a32, b32);
            break;
          case Kind::rxParse:
            onRxParse(h, rec.flow, a32, b32);
            break;
          case Kind::upcallPost:
            onUpcallPost(h, rec.flow, a32);
            break;
          case Kind::hifFlush:
            onFlush(h, rec.flow, a32);
            break;
          default:
            break;
        }
    }

    // --- requests and spans ---------------------------------------------

    Request &req(std::uint32_t r) { return out_.requests_[r]; }
    State &st(std::uint32_t r) { return states_[r]; }
    std::int64_t
    target(std::uint32_t r) const
    {
        return static_cast<std::int64_t>(out_.requests_[r].targetOffset);
    }
    bool done(std::uint32_t r) const { return out_.requests_[r].done; }
    bool isOpen(std::uint32_t r, Stage s) { return st(r).open[idx(s)] >= 0; }

    void
    open(std::uint32_t r, Stage s, Tick at)
    {
        Request &request = req(r);
        st(r).open[idx(s)] = static_cast<int>(request.spans.size());
        request.spans.push_back(Span{s, at});
    }

    void
    markService(std::uint32_t r, Stage s, Tick at)
    {
        if (int i = st(r).open[idx(s)]; i >= 0) {
            Span &span = req(r).spans[i];
            span.serviceBegin = at;
            span.serviceSet = true;
        }
    }

    /** Close the open @p s span at @p at and sample it in the window. */
    void
    close(std::uint32_t r, Stage s, Tick at)
    {
        int &i = st(r).open[idx(s)];
        if (i < 0)
            return;
        Span &span = req(r).spans[i];
        i = -1;
        span.end = at;
        span.open = false;
        if (!windowed_)
            return;
        out_.total_[idx(s)]->sample(us(span.duration()));
        out_.queue_[idx(s)]->sample(us(span.queueTime()));
        out_.service_[idx(s)]->sample(us(span.serviceTime()));
    }

    void
    abandon(std::uint32_t r, Stage s)
    {
        int &i = st(r).open[idx(s)];
        if (i < 0)
            return;
        Span &span = req(r).spans[i];
        i = -1;
        span.end = now_;
        span.open = false;
        span.abandoned = true;
        ++out_.abandoned_;
    }

    void
    retire(std::uint32_t r, bool aborted)
    {
        Request &request = req(r);
        request.done = true;
        request.aborted = aborted;
        request.end = now_;
        for (std::size_t s = 0; s < numStages; ++s)
            abandon(r, static_cast<Stage>(s));
        if (aborted) {
            ++out_.aborted_;
        } else {
            ++out_.completed_;
            if (windowed_) {
                request.sampled = true;
                out_.e2e_->sample(us(request.latency()));
            }
        }
    }

    /** Keep @p list in target order. */
    void
    insertByTarget(std::vector<std::uint32_t> &list, std::uint32_t r)
    {
        auto pos = list.end();
        while (pos != list.begin() && target(*(pos - 1)) > target(r))
            --pos;
        list.insert(pos, r);
    }

    /** Take the prefix of @p list with targets up to @p pointer and
     *  hand each request still open to @p fn. */
    template <typename Fn>
    void
    takeCovered(std::vector<std::uint32_t> &list, std::int64_t pointer,
                Fn fn)
    {
        std::size_t n = 0;
        for (; n < list.size() && target(list[n]) <= pointer; ++n) {
            if (!done(list[n]))
                fn(list[n]);
        }
        list.erase(list.begin(), list.begin() + n);
    }

    void
    dropDoneFront(std::deque<std::uint32_t> &list)
    {
        while (!list.empty() && done(list.front()))
            list.pop_front();
    }

    // --- endpoints ------------------------------------------------------

    Endpoint *
    endpoint(std::uint32_t h, std::uint32_t flow)
    {
        auto &table = endpoints_[h];
        return flow < table.size() && table[flow] && table[flow]->live
                   ? table[flow].get()
                   : nullptr;
    }

    /** Tear an endpoint down: abort what its flow still has open. */
    void
    drop(Endpoint &e)
    {
        for (std::uint32_t r : e.out) {
            if (!done(r))
                retire(r, true);
        }
        if (Endpoint *peer = e.peer) {
            for (std::uint32_t r : peer->out) {
                if (!done(r) && st(r).bound)
                    retire(r, true);
            }
            peer->peer = nullptr;
        }
        auto &by_hash = byHash_[e.host];
        if (auto it = by_hash.find(e.hash);
            it != by_hash.end() && it->second == &e)
            by_hash.erase(it);
        if (auto it = unbound_.find(e.hash);
            it != unbound_.end() && it->second == &e)
            unbound_.erase(it);
        e = Endpoint{};
    }

    // --- record handlers ------------------------------------------------

    void
    onConnect(std::uint32_t h, std::uint32_t flow, std::uint32_t hash,
              std::uint32_t tx_start)
    {
        auto &table = endpoints_[h];
        if (flow >= table.size())
            table.resize(flow + 1);
        if (!table[flow])
            table[flow] = std::make_unique<Endpoint>();
        Endpoint &e = *table[flow];
        if (e.live)
            drop(e);
        e.live = true;
        e.host = h;
        e.hash = hash;
        e.txStart = tx_start;
        byHash_[h][hash] = &e;
        auto it = unbound_.find(hash);
        if (it != unbound_.end() && it->second->host != h) {
            e.peer = it->second;
            it->second->peer = &e;
            unbound_.erase(it);
        } else {
            unbound_[hash] = &e;
        }
    }

    void
    onRecycle(std::uint32_t h, std::uint32_t flow)
    {
        if (Endpoint *e = endpoint(h, flow))
            drop(*e);
    }

    void
    onLibSend(std::uint32_t h, std::uint32_t flow, std::uint64_t offset)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        auto r = static_cast<std::uint32_t>(out_.requests_.size());
        Request request;
        request.id = r + 1;
        request.flow = flow;
        request.targetOffset = offset;
        request.begin = now_;
        out_.requests_.push_back(std::move(request));
        State state;
        state.sender = e;
        std::fill(std::begin(state.open), std::end(state.open), -1);
        states_.push_back(state);
        open(r, Stage::appQueue, now_);
        close(r, Stage::appQueue, now_);
        open(r, Stage::doorbell, now_);
        e->out.push_back(r);
        e->awaitFetch.push_back(r);
        e->lastTarget = offset;
    }

    void
    onFetch(std::uint32_t h, std::uint32_t flow, std::uint32_t offset,
            Tick fetch_start)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        auto it = std::find_if(
            e->awaitFetch.begin(), e->awaitFetch.end(),
            [&](std::uint32_t r) {
                return static_cast<std::uint32_t>(target(r)) == offset;
            });
        if (it == e->awaitFetch.end())
            return;
        std::uint32_t r = *it;
        e->awaitFetch.erase(it);
        if (done(r))
            return;
        close(r, Stage::doorbell, fetch_start);
        open(r, Stage::pcie, fetch_start);
        markService(r, Stage::pcie, fetch_start);
        close(r, Stage::pcie, now_);
        st(r).fetched = true;
        open(r, Stage::fpcQueue, now_);
        insertByTarget(e->awaitAbsorb, r);
    }

    void
    onUserSendAbsorb(std::uint32_t h, std::uint32_t flow,
                     std::uint32_t pointer)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        std::int64_t covered =
            unwrap(e->lastTarget, pointer - e->txStart);
        takeCovered(e->awaitAbsorb, covered, [&](std::uint32_t r) {
            close(r, Stage::fpcQueue, now_);
            if (target(r) != covered) {
                req(r).merged = true;
                ++out_.merged_;
            }
            if (!isOpen(r, Stage::fpcExec)) {
                open(r, Stage::fpcExec, now_);
                insertByTarget(e->awaitIssue, r);
            }
        });
    }

    void
    onRxAbsorb(std::uint32_t h, std::uint32_t flow, std::uint32_t rcv_up_to)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e || !e->peer)
            return;
        Endpoint &s = *e->peer;
        std::int64_t covered = unwrap(s.lastTarget, rcv_up_to - s.txStart);
        takeCovered(e->inAwaitAbsorb, covered, [&](std::uint32_t r) {
            close(r, Stage::fpcQueue, now_);
            if (!isOpen(r, Stage::fpcExec)) {
                open(r, Stage::fpcExec, now_);
                insertByTarget(e->inAwaitIssue, r);
            }
        });
    }

    /** The pass covers absorbed requests (fpcExec service begins) and
     *  DRAM-resident ones no FPC absorbed (fpcQueue still open). */
    void
    coverByIssue(Endpoint &e, std::vector<std::uint32_t> &absorbed,
                 std::vector<std::uint32_t> &queued, std::int64_t covered)
    {
        takeCovered(absorbed, covered, [&](std::uint32_t r) {
            markService(r, Stage::fpcExec, now_);
            e.inPass.push_back(r);
        });
        takeCovered(queued, covered,
                    [&](std::uint32_t r) { e.inPass.push_back(r); });
    }

    void
    onIssue(std::uint32_t h, std::uint32_t flow, std::uint32_t merged_req,
            std::uint32_t rcv_nxt)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        coverByIssue(*e, e->awaitIssue, e->awaitAbsorb,
                     unwrap(e->lastTarget, merged_req - e->txStart));
        if (Endpoint *s = e->peer) {
            coverByIssue(*e, e->inAwaitIssue, e->inAwaitAbsorb,
                         unwrap(s->lastTarget, rcv_nxt - s->txStart));
        }
    }

    void
    onPass(std::uint32_t h, std::uint32_t flow)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        for (std::uint32_t r : e->inPass) {
            if (done(r))
                continue;
            if (isOpen(r, Stage::fpcExec))
                close(r, Stage::fpcExec, now_);
            else
                close(r, Stage::fpcQueue, now_);
        }
        e->inPass.clear();
    }

    void
    onSegment(std::uint32_t h, std::uint32_t flow, std::uint32_t seq,
              std::uint32_t len)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e || len == 0)
            return;
        std::int64_t lo = unwrap(e->lastTarget, seq - e->txStart);
        std::int64_t hi = lo + len;
        dropDoneFront(e->out);
        auto it = std::partition_point(
            e->out.begin(), e->out.end(),
            [&](std::uint32_t r) { return target(r) <= lo; });
        std::uint32_t id = 0;
        for (; it != e->out.end() && target(*it) <= hi; ++it) {
            std::uint32_t r = *it;
            if (done(r) || !st(r).fetched)
                continue;
            if (isOpen(r, Stage::wire)) {
                // The earlier copy never arrived, or is still in
                // flight: the retransmission supersedes it.
                abandon(r, Stage::wire);
                ++out_.wireReentries_;
            }
            open(r, Stage::wire, now_);
            ++req(r).wireEntries;
            id = r + 1;
        }
        e->txPending.push_back({seq, id});
    }

    void
    onLinkTx(std::uint32_t h, std::uint32_t hash, std::uint32_t seq)
    {
        auto found = byHash_[h].find(hash);
        if (found == byHash_[h].end())
            return;
        std::deque<TxSegment> &pending = found->second->txPending;
        auto it = std::find_if(pending.begin(), pending.end(),
                               [&](const TxSegment &t) {
                                   return t.seq == seq;
                               });
        if (it == pending.end())
            return;
        std::uint32_t id = it->id;
        pending.erase(pending.begin(), it + 1);
        if (id != 0 && !done(id - 1))
            markService(id - 1, Stage::wire, now_);
    }

    void
    onRxParse(std::uint32_t h, std::uint32_t flow, std::uint32_t seq,
              std::uint32_t len)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e || !e->peer || len == 0)
            return;
        Endpoint &s = *e->peer;
        std::int64_t lo = unwrap(s.lastTarget, seq - s.txStart);
        std::int64_t hi = lo + len;
        dropDoneFront(s.out);
        // The segment's request: the highest target it holds.
        auto end = std::partition_point(
            s.out.begin(), s.out.end(),
            [&](std::uint32_t r) { return target(r) <= hi; });
        std::uint32_t t = 0;
        bool found = false;
        for (auto it = end; it != s.out.begin();) {
            std::uint32_t r = *--it;
            if (target(r) <= lo)
                break;
            if (!done(r) && st(r).fetched) {
                t = r;
                found = true;
                break;
            }
        }
        if (!found)
            return;
        if (!isOpen(t, Stage::wire)) {
            // Its wire span already closed: another copy of the
            // segment, or a later one, arrived first.
            ++out_.duplicates_;
            return;
        }
        // Cumulative arrival: every open wire span up to this target
        // closes, and each of those requests is bound to this end.
        for (auto it = s.out.begin(); it != end; ++it) {
            std::uint32_t r = *it;
            if (target(r) > target(t))
                break;
            if (done(r) || !isOpen(r, Stage::wire))
                continue;
            close(r, Stage::wire, now_);
            open(r, Stage::rxParse, now_);
            markService(r, Stage::rxParse, now_);
            close(r, Stage::rxParse, now_);
            st(r).bound = true;
        }
        if (!isOpen(t, Stage::fpcQueue)) {
            open(t, Stage::fpcQueue, now_);
            insertByTarget(e->inAwaitAbsorb, t);
        }
    }

    void
    onUpcallPost(std::uint32_t h, std::uint32_t flow, std::uint32_t offset)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        std::int64_t covered = unwrap(e->deliveredRef, offset);
        if (covered > static_cast<std::int64_t>(e->deliveredRef))
            e->deliveredRef = static_cast<std::uint64_t>(covered);
        std::uint32_t id = 0;
        if (Endpoint *s = e->peer) {
            dropDoneFront(s->out);
            for (std::uint32_t r : s->out) {
                if (target(r) > covered)
                    break;
                if (done(r) || !st(r).bound)
                    continue;
                if (!isOpen(r, Stage::upcall))
                    open(r, Stage::upcall, now_);
                id = r + 1;
            }
        }
        e->posted.push_back({offset, id, false});
    }

    void
    onFlush(std::uint32_t h, std::uint32_t flow, std::uint32_t offset)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        for (Posted &p : e->posted) {
            if (p.flushed || p.offset != offset)
                continue;
            p.flushed = true;
            if (p.id != 0 && !done(p.id - 1))
                markService(p.id - 1, Stage::upcall, now_);
            return;
        }
    }

    void
    onLibDeliver(std::uint32_t h, std::uint32_t flow, std::uint32_t offset)
    {
        Endpoint *e = endpoint(h, flow);
        if (!e)
            return;
        auto it = std::find_if(
            e->posted.begin(), e->posted.end(),
            [&](const Posted &p) { return p.offset == offset; });
        if (it == e->posted.end())
            return;
        std::uint32_t id = it->id;
        e->posted.erase(e->posted.begin(), it + 1);
        if (id != 0 && !done(id - 1))
            deliver(id - 1);
    }

    /** The completion reporting @p t reached the application: @p t and
     *  every bound request below it in upcall are done. */
    void
    deliver(std::uint32_t t)
    {
        finished_.clear();
        Endpoint &s = *st(t).sender;
        if (st(t).bound) {
            for (std::uint32_t r : s.out) {
                if (target(r) > target(t))
                    break;
                if (!done(r) && st(r).bound && isOpen(r, Stage::upcall))
                    finished_.push_back(r);
            }
        }
        if (std::find(finished_.begin(), finished_.end(), t) ==
            finished_.end())
            finished_.push_back(t);
        for (std::uint32_t r : finished_) {
            close(r, Stage::upcall, now_);
            retire(r, false);
        }
    }

    Spans &out_;
    const std::vector<SpanHost> &hosts_;
    std::size_t windowStart_;
    bool windowed_ = false;
    Tick now_ = 0;
    std::vector<Module> modules_;
    std::vector<State> states_;
    std::vector<std::vector<std::unique_ptr<Endpoint>>> endpoints_;
    std::vector<std::unordered_map<std::uint32_t, Endpoint *>> byHash_;
    /** Ends whose peer has not connected yet, by tuple hash. */
    std::unordered_map<std::uint32_t, Endpoint *> unbound_;
    std::vector<std::uint32_t> finished_;
};

Spans::Spans(const std::vector<sim::fr::Record> &records,
             const std::vector<SpanHost> &hosts, std::size_t window_start)
{
    for (std::size_t i = 0; i < numStages; ++i) {
        std::string stage =
            std::string("ctrace.") + stageName(static_cast<Stage>(i));
        total_[i] = std::make_unique<sim::Histogram>(
            registry_, stage + ".total", "stage latency, us");
        queue_[i] = std::make_unique<sim::Histogram>(
            registry_, stage + ".queue", "stage queueing time, us");
        service_[i] = std::make_unique<sim::Histogram>(
            registry_, stage + ".service", "stage service time, us");
    }
    e2e_ = std::make_unique<sim::Histogram>(
        registry_, "ctrace.e2e", "end-to-end request latency, us");
    Builder(*this, hosts, window_start).run(records);
}

Spans::~Spans() = default;

const Request *
Spans::slowest() const
{
    const Request *best = nullptr;
    for (const Request &r : requests_) {
        if (r.sampled && (!best || r.latency() > best->latency()))
            best = &r;
    }
    return best;
}

std::string
Spans::criticalPath(const Request &request) const
{
    std::vector<const Span *> ordered;
    for (const Span &span : request.spans)
        ordered.push_back(&span);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Span *a, const Span *b) {
                         return a->begin < b->begin;
                     });

    char line[160];
    std::snprintf(line, sizeof(line),
                  "req#%u flow=%u e2e=%.3fus spans=%zu%s\n", request.id,
                  request.flow, us(request.latency()), request.spans.size(),
                  request.aborted ? " (aborted)" : "");
    std::string out = line;
    Tick prev_end = request.begin;
    for (const Span *span : ordered) {
        Tick gap = span->begin > prev_end ? span->begin - prev_end : 0;
        std::snprintf(
            line, sizeof(line),
            "  %-8s %9.3fus  (queue %.3f, service %.3f)%s%s\n",
            stageName(span->stage), us(span->duration()),
            us(span->queueTime()), us(span->serviceTime()),
            span->abandoned ? "  [abandoned]" : "",
            gap ? "  [gap before]" : "");
        out += line;
        if (!span->abandoned && span->end > prev_end)
            prev_end = span->end;
    }
    return out;
}

void
Spans::draw(sim::trace::TraceEventSink &sink) const
{
    char name[24];
    for (const Request &r : requests_) {
        std::snprintf(name, sizeof(name), "req%u", r.id);
        for (const Span &span : r.spans) {
            if (!span.open && !span.abandoned)
                sink.span(std::string("ctrace.") + stageName(span.stage),
                          "ctrace", name, span.begin, span.end);
        }
    }
}

} // namespace f4t::obs
