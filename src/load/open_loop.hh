/**
 * @file
 * Open-loop KV load generation.
 *
 * The closed-loop generators (apps/workloads.hh, apps/http.hh) issue
 * a new request only when the previous response returns, so offered
 * load collapses exactly when the system congests — they can never
 * exhibit queue buildup, incast collapse, or tail-latency blowup.
 * OpenLoopClientApp decouples arrivals from completions: requests
 * arrive on a configured arrival process regardless of progress, wait
 * in a FIFO backlog for a free connection, and the measured latency
 * runs from the *arrival* tick to response completion — queue wait
 * included, which is where open-loop tails live.
 *
 * Every arrival draws (arrival gap, op, value size) from the seeded
 * substream generators, so a run's request stream is a pure function
 * of (seed, clientId): the seed, not a recording, reproduces it.
 *
 * ChurnClientApp stresses the control path instead: it opens
 * connections on an arrival process, runs a single GET over each, and
 * closes it — connection setup/teardown at a target conn/s, with the
 * full open-to-close lifecycle latency sampled per connection.
 */

#ifndef F4T_LOAD_OPEN_LOOP_HH
#define F4T_LOAD_OPEN_LOOP_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "apps/kv.hh"
#include "apps/socket_api.hh"
#include "load/generators.hh"
#include "net/stream_oracle.hh"
#include "sim/stats.hh"

namespace f4t::load
{

struct OpenLoopConfig
{
    net::Ipv4Address peer;
    std::uint16_t port = 11211;
    std::size_t connections = 4;
    /** KV key (and oracle stream) base: slot i uses streamBase + i.
     *  Give every client a disjoint range. */
    std::uint32_t streamBase = 0;
    std::uint32_t clientId = 0;
    std::uint64_t seed = 1;

    ArrivalSpec arrivals = ArrivalSpec::poisson(100'000.0);
    SizeSpec valueSizes = SizeSpec::fixedSize(1024);
    /** Fraction of requests that are GETs (rest are SETs). */
    double readFraction = 1.0;
    /** Stop generating after this many arrivals; 0 = unbounded. */
    std::uint64_t maxRequests = 0;
    /** First arrival lands at startAt + first gap. */
    sim::Tick startAt = 0;
    sim::Tick connectSpacing = sim::microsecondsToTicks(1);

    /** Optional sinks; all may be null. Must outlive the app. */
    net::StreamOracle *oracle = nullptr;
    sim::Histogram *latencyUs = nullptr;
};

class OpenLoopClientApp
{
  public:
    OpenLoopClientApp(apps::SocketApi &api, const OpenLoopConfig &config);

    void start();

    std::uint64_t issued() const { return issued_; }
    std::uint64_t dispatched() const { return dispatched_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t resets() const { return resets_; }
    /** GET response value bytes consumed. */
    std::uint64_t valueBytesReceived() const { return valueBytesReceived_; }
    /** SET request value bytes produced. */
    std::uint64_t valueBytesSent() const { return valueBytesSent_; }
    std::size_t peakBacklogDepth() const { return peakBacklog_; }

  private:
    struct Request
    {
        sim::Tick arrival = 0;
        apps::KvOp op = apps::KvOp::get;
        std::uint32_t valueBytes = 0;
    };

    struct Slot
    {
        apps::SocketApi::ConnId id = apps::SocketApi::invalidConn;
        bool connected = false;
        bool busy = false;
        bool dead = false;
        Request current;
        /** Response parse state. */
        std::size_t headerRemaining = 0;
        std::uint32_t valueRemaining = 0;
        /** Request bytes not yet accepted by send(). */
        std::vector<std::uint8_t> out;
        std::size_t outSent = 0;
        /** SET value stream offset (pattern + oracle continuity). */
        std::uint64_t setOffset = 0;
    };

    void connectSlot(std::size_t slot);
    void scheduleNextArrival();
    void onArrival(Request request);
    void tryDispatch();
    void tryDispatchSlot(std::size_t slot);
    void dispatch(std::size_t slot, const Request &request);
    void flushSlot(std::size_t slot);
    void onReadable(std::size_t slot);
    void completeCurrent(std::size_t slot);
    std::uint32_t key(std::size_t slot) const;

    apps::SocketApi &api_;
    OpenLoopConfig config_;
    std::vector<Slot> slots_;
    std::map<apps::SocketApi::ConnId, std::size_t> slotById_;
    ArrivalProcess arrivals_;
    SizeSampler sizes_;
    sim::Random opRng_;
    std::deque<Request> backlog_;
    std::vector<std::uint8_t> scratch_;
    sim::Tick lastArrival_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t valueBytesReceived_ = 0;
    std::uint64_t valueBytesSent_ = 0;
    std::size_t peakBacklog_ = 0;
};

struct ChurnConfig
{
    net::Ipv4Address peer;
    std::uint16_t port = 11211;
    std::uint32_t clientId = 0;
    std::uint64_t seed = 1;
    /** Connection-open arrival process (the target conn/s). */
    ArrivalSpec arrivals = ArrivalSpec::poisson(10'000.0);
    /** Value size of the single GET each connection performs. */
    std::uint32_t requestBytes = 512;
    /** Stop opening after this many connections; 0 = unbounded. */
    std::uint64_t maxOpens = 0;
    sim::Tick startAt = 0;
    /** Open-to-closed lifecycle latency, microseconds; may be null. */
    sim::Histogram *lifecycleUs = nullptr;
};

class ChurnClientApp
{
  public:
    ChurnClientApp(apps::SocketApi &api, const ChurnConfig &config);

    void start();

    std::uint64_t opened() const { return opened_; }
    /** Lifecycles that drained the full response and initiated close.
     *  (The closed-notification tail includes TIME_WAIT — 10 ms of
     *  simulated idling on the active closer — so the lifecycle metric
     *  ends at close initiation; see closedEvents().) */
    std::uint64_t completed() const { return completed_; }
    /** Full teardowns observed (onClosed fired, flow recycled). */
    std::uint64_t closedEvents() const { return closed_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t valueBytesReceived() const { return valueBytesReceived_; }

  private:
    struct Conn
    {
        sim::Tick openedAt = 0;
        std::size_t headerRemaining = apps::kvHeaderBytes;
        std::uint32_t valueRemaining = 0;
        bool requested = false;
        bool closing = false;
    };

    void scheduleNextOpen();
    void openOne();
    void onReadable(apps::SocketApi::ConnId conn);

    apps::SocketApi &api_;
    ChurnConfig config_;
    ArrivalProcess arrivals_;
    std::map<apps::SocketApi::ConnId, Conn> conns_;
    std::vector<std::uint8_t> scratch_;
    sim::Tick lastOpen_ = 0;
    std::uint64_t opened_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t closed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t valueBytesReceived_ = 0;
};

} // namespace f4t::load

#endif // F4T_LOAD_OPEN_LOOP_HH
