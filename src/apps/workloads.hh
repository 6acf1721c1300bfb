/**
 * @file
 * Workload applications from the paper's evaluation, written against
 * SocketApi so they run unmodified on F4T and on the Linux baseline:
 *
 *  - BulkSenderApp / BulkSinkApp: iPerf-style bulk transfer, one flow
 *    per thread, fixed request size (Fig. 8a, Fig. 9);
 *  - RoundRobinSenderApp: one thread spraying requests over 16 flows
 *    in round-robin order (Fig. 8b);
 *  - EchoServerApp / EchoClientApp: 128 B ping-pong over many flows,
 *    the low-locality connectivity stressor (Fig. 13).
 */

#ifndef F4T_APPS_WORKLOADS_HH
#define F4T_APPS_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "apps/socket_api.hh"
#include "sim/stats.hh"

namespace f4t::apps
{

/** Pattern byte at a given stream offset (end-to-end integrity). */
inline std::uint8_t
patternByte(std::uint64_t offset)
{
    return static_cast<std::uint8_t>((offset * 131 + 17) & 0xff);
}

/** patternByte repeats every this many offsets. */
inline constexpr std::size_t patternPeriod = 256;

/** Size of every echo message, as the server reads and the client
 *  sends it. */
inline constexpr std::size_t echoMessageBytes = 128;

struct BulkSenderConfig
{
    net::Ipv4Address peer;
    std::uint16_t port = 5001;
    std::size_t requestBytes = 128;
};

/** iPerf-like sender: one connection, back-to-back send() calls. */
class BulkSenderApp
{
  public:
    /** send() calls per burst before the app yields its core. */
    static constexpr std::size_t burstRequests = 32;

    BulkSenderApp(SocketApi &api, const BulkSenderConfig &config);

    void start();

    std::uint64_t requestsSent() const { return requestsSent_; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    bool connected() const { return connected_; }

  private:
    void pump();

    SocketApi &api_;
    BulkSenderConfig config_;
    SocketApi::ConnId conn_ = SocketApi::invalidConn;
    bool connected_ = false;
    bool blocked_ = false;
    bool pumpScheduled_ = false;
    std::uint64_t requestsSent_ = 0;
    std::uint64_t bytesSent_ = 0;
    /** requestBytes + patternPeriod pattern bytes, written once: a
     *  request is the window that starts at bytesSent_ % patternPeriod. */
    std::vector<std::uint8_t> pattern_;
};

struct BulkSinkConfig
{
    std::uint16_t port = 5001;
    bool verifyPattern = false;
};

/** iPerf-like receiver: accepts connections and drains them. */
class BulkSinkApp
{
  public:
    BulkSinkApp(SocketApi &api, const BulkSinkConfig &config);

    void start();

    std::uint64_t bytesReceived() const { return bytesReceived_; }
    std::uint64_t patternErrors() const { return patternErrors_; }

  private:
    void drain(SocketApi::ConnId conn);

    SocketApi &api_;
    BulkSinkConfig config_;
    std::map<SocketApi::ConnId, std::uint64_t> streamOffset_;
    std::uint64_t bytesReceived_ = 0;
    std::uint64_t patternErrors_ = 0;
    std::vector<std::uint8_t> scratch_;
};

struct RoundRobinSenderConfig
{
    net::Ipv4Address peer;
    std::uint16_t port = 5001;
    std::size_t flows = 16;
    std::size_t requestBytes = 128;
};

/** Round-robin sender: requests rotate over a set of flows (8b). */
class RoundRobinSenderApp
{
  public:
    /** send() calls per burst before the app yields its core. */
    static constexpr std::size_t burstRequests = 32;

    RoundRobinSenderApp(SocketApi &api,
                        const RoundRobinSenderConfig &config);

    void start();

    std::uint64_t requestsSent() const { return requestsSent_; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    std::size_t connectedFlows() const { return connected_; }

  private:
    void pump();

    SocketApi &api_;
    RoundRobinSenderConfig config_;
    std::vector<SocketApi::ConnId> conns_;
    std::size_t connected_ = 0;
    std::size_t nextFlow_ = 0;
    bool pumpScheduled_ = false;
    std::uint64_t requestsSent_ = 0;
    std::uint64_t bytesSent_ = 0;
    /** The request every send() passes, written once. */
    std::vector<std::uint8_t> request_;
};

struct EchoServerConfig
{
    std::uint16_t port = 7;
};

/** Echoes fixed-size messages back to the sender. */
class EchoServerApp
{
  public:
    EchoServerApp(SocketApi &api, const EchoServerConfig &config);

    void start();

    std::uint64_t messagesEchoed() const { return messagesEchoed_; }

  private:
    void serve(SocketApi::ConnId conn);

    SocketApi &api_;
    EchoServerConfig config_;
    std::uint64_t messagesEchoed_ = 0;
    std::vector<std::uint8_t> scratch_;
};

struct EchoClientConfig
{
    net::Ipv4Address peer;
    std::uint16_t port = 7;
    std::size_t flows = 64;
    /** Stagger connection establishment (ticks between connects). */
    sim::Tick connectSpacing = sim::microsecondsToTicks(1);
};

/** Ping-pong client: each flow waits for the echo before the next
 *  message — the worst-case TCB locality pattern (Section 5.3). */
class EchoClientApp
{
  public:
    EchoClientApp(SocketApi &api, sim::Histogram *latency,
                  const EchoClientConfig &config);

    void start();

    std::uint64_t roundTrips() const { return roundTrips_; }
    std::size_t connectedFlows() const { return connected_; }

  private:
    /** The message a connection has in flight. */
    struct Flight
    {
        bool active = false; ///< a message has been sent on this conn
        sim::Tick sentAt = 0;
        std::size_t pendingBytes = 0;
    };

    void connectNext(std::size_t index);
    void fire(SocketApi::ConnId conn);
    void onEcho(SocketApi::ConnId conn);

    SocketApi &api_;
    sim::Histogram *latency_;
    EchoClientConfig config_;
    /** Indexed by ConnId (small, never-reused integers on both APIs),
     *  grown as connections come up. */
    std::vector<Flight> flights_;
    std::size_t connected_ = 0;
    std::uint64_t roundTrips_ = 0;
    /** The message every fire() sends, written once. */
    std::vector<std::uint8_t> message_;
    /** Where onEcho() reads echoes; never sent from. */
    std::vector<std::uint8_t> scratch_;
};

} // namespace f4t::apps

#endif // F4T_APPS_WORKLOADS_HH
