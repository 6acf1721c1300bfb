/**
 * @file
 * SoftTcpStack: a classical per-packet software TCP implementation.
 *
 * This stack plays two roles in the reproduction:
 *
 *  1. the Linux TCP baseline — attached to host CPU cores with a
 *     calibrated cycle cost model, it is the comparison stack for the
 *     Fig. 1/8/10–13 experiments;
 *  2. the independent congestion-control oracle — the role NS3 plays in
 *     the paper's Fig. 14: a from-scratch, per-packet, floating-point
 *     implementation of NewReno and CUBIC written separately from the
 *     FPU programs, so agreement between the two is meaningful.
 *
 * The implementation is deliberately structured like a textbook stack
 * (per-packet handlers mutating per-connection state under a lock) and
 * shares no code with the FtEngine FPU path beyond the byte-level
 * header definitions.
 */

#ifndef F4T_TCP_SOFT_TCP_HH
#define F4T_TCP_SOFT_TCP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/byte_ring.hh"
#include "net/four_tuple.hh"
#include "net/interval_set.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"
#include "tcp/tcb.hh"

namespace f4t::tcp
{

/** CPU-time categories for utilization breakdowns (Fig. 1a / 11). */
enum class CostCategory : std::uint8_t
{
    application,
    tcpStack,
    kernelOther,
    f4tLibrary,
    filesystem,
};

const char *toString(CostCategory category);

/** Receives cycle charges from stacks and libraries. */
class CycleAccountant
{
  public:
    virtual ~CycleAccountant() = default;
    virtual void charge(CostCategory category, double cycles) = 0;
};

/** Congestion algorithms available in the software stack. */
enum class SoftCcAlgo : std::uint8_t
{
    newReno,
    cubic,
};

struct SoftTcpConfig
{
    net::Ipv4Address ip;
    net::MacAddress mac;
    std::size_t sendBufBytes = 512 * 1024;
    std::size_t recvBufBytes = 512 * 1024;
    SoftCcAlgo cc = SoftCcAlgo::newReno;
    /** First ephemeral port (staggered across per-core stacks). */
    std::uint16_t ephemeralPortBase = 32768;
};

/** Connection handle used by applications. */
using SoftConnId = std::uint32_t;
constexpr SoftConnId invalidSoftConn = ~SoftConnId{0};

/** Event callbacks toward the application layer. */
struct SoftTcpCallbacks
{
    std::function<void(SoftConnId)> onConnected;
    /** A passive connection was accepted on a listening port. */
    std::function<void(SoftConnId, std::uint16_t local_port)> onAccept;
    std::function<void(SoftConnId)> onWritable;
    std::function<void(SoftConnId, std::size_t readable)> onReadable;
    std::function<void(SoftConnId)> onPeerClosed;
    std::function<void(SoftConnId)> onClosed;
    std::function<void(SoftConnId)> onReset;
};

class SoftTcpStack : public sim::SimObject, public net::PacketSink
{
  public:
    SoftTcpStack(sim::Simulation &sim, std::string name,
                 const SoftTcpConfig &config);
    ~SoftTcpStack() override;

    /** Attach the transmit side (usually LinkDirection::send). */
    void setTransmit(std::function<void(net::Packet &&)> tx)
    {
        transmit_ = std::move(tx);
    }

    /** Resolve destination MACs (static ARP table for the testbed). */
    void addArpEntry(net::Ipv4Address ip, net::MacAddress mac)
    {
        arpTable_[ip.value] = mac;
    }

    void setCallbacks(const SoftTcpCallbacks &cb) { callbacks_ = cb; }
    /** Charge the calibrated Linux stack costs (host/cost_model.hh) to
     *  @p acct. Without an accountant the stack is free, as a pure
     *  protocol oracle. */
    void setAccountant(CycleAccountant *acct) { accountant_ = acct; }

    // --- application interface -----------------------------------------
    /** Start listening on a local port. */
    void listen(std::uint16_t port);

    /** Active open; onConnected fires when established. */
    SoftConnId connect(net::Ipv4Address remote_ip,
                       std::uint16_t remote_port);

    /** Queue bytes for transmission; returns the count accepted. */
    std::size_t send(SoftConnId conn, std::span<const std::uint8_t> data);

    /** Copy received in-order bytes out; returns the count read. */
    std::size_t recv(SoftConnId conn, std::span<std::uint8_t> out);

    /** In-order bytes available to recv(). */
    std::size_t readable(SoftConnId conn) const;

    /** Free space in the send buffer. */
    std::size_t writable(SoftConnId conn) const;

    /** Graceful close (FIN after the send buffer drains). */
    void close(SoftConnId conn);

    /** Abortive close (RST). */
    void abort(SoftConnId conn);

    ConnState state(SoftConnId conn) const;

    /** Current congestion window in bytes (cwnd tracing, Fig. 14). */
    double cwnd(SoftConnId conn) const;

    /** True when this stack instance owns the connection 4-tuple
     *  (multi-core hosts demux received packets with this). */
    bool ownsTuple(const net::FourTuple &tuple) const
    {
        return connByTuple_.count(tuple) != 0;
    }

    /** True when a local port is in the listening set. */
    bool listening(std::uint16_t port) const
    {
        return listeningPorts_.count(port) != 0;
    }

    // --- link interface ---------------------------------------------------
    void receivePacket(net::Packet &&pkt) override;

    // --- statistics ----------------------------------------------------------
    std::uint64_t segmentsSent() const { return segmentsSent_.value(); }
    std::uint64_t segmentsReceived() const { return segmentsRcvd_.value(); }
    std::uint64_t retransmissions() const { return retransmits_.value(); }

  private:
    struct Conn;

    Conn *find(SoftConnId id);
    const Conn *find(SoftConnId id) const;
    Conn &get(SoftConnId id);

    void handleTcp(const net::Packet &pkt);
    void handleListen(const net::Packet &pkt, std::uint16_t port);
    void handleSegment(Conn &conn, const net::TcpHeader &tcp,
                       std::span<const std::uint8_t> payload);
    void processAck(Conn &conn, const net::TcpHeader &tcp);
    void acceptPayload(Conn &conn, const net::TcpHeader &tcp,
                       std::span<const std::uint8_t> payload);
    void trySendData(Conn &conn);
    void maybeSendFin(Conn &conn);
    void sendSegment(Conn &conn, std::uint64_t stream_offset,
                     std::uint32_t length, bool retransmission);
    void sendControl(Conn &conn, std::uint8_t flags, bool with_mss = false);
    void sendReset(const net::FourTuple &tuple, net::SeqNum seq,
                   net::SeqNum ack, net::MacAddress dst_mac);
    void sendAck(Conn &conn);
    void armRto(Conn &conn);
    void cancelRto(Conn &conn);
    void onRtoFire(SoftConnId id, std::uint64_t generation);
    void enterTimeWait(Conn &conn);
    void setState(Conn &conn, ConnState next);
    void destroy(SoftConnId id);
    void finishEstablishment(Conn &conn);
    void updateRtt(Conn &conn, std::uint64_t now_us);
    void notifyReadable(Conn &conn);

    // Congestion control (independent float implementation).
    void ccInit(Conn &conn);
    void ccOnAck(Conn &conn, std::uint32_t acked, std::uint64_t now_us);
    void ccOnDupAcks(Conn &conn, std::uint64_t now_us);
    void ccOnPartialAck(Conn &conn, std::uint32_t acked);
    void ccOnExitRecovery(Conn &conn);
    void ccOnTimeout(Conn &conn, std::uint64_t now_us);
    void cubicStartEpoch(Conn &conn, std::uint64_t now_us);

    net::MacAddress resolveMac(net::Ipv4Address ip) const;
    std::uint64_t nowUs() const;
    void chargeStack(double cycles);

    SoftTcpConfig config_;
    std::function<void(net::Packet &&)> transmit_;
    SoftTcpCallbacks callbacks_;
    CycleAccountant *accountant_ = nullptr;

    // Hash-based tables on the per-packet path (none is ever iterated,
    // so no observable ordering depends on the container; demux is the
    // per-segment O(1) lookup a real stack would do against its
    // connection hash).
    std::unordered_map<std::uint32_t, net::MacAddress> arpTable_;
    std::unordered_set<std::uint16_t> listeningPorts_;
    std::unordered_map<net::FourTuple, SoftConnId> connByTuple_;
    /**
     * Connection table indexed by SoftConnId. Ids are handed out
     * monotonically and never reused, so the table is a dense vector:
     * find() on the per-packet path is a bounds check plus one indexed
     * load instead of a hash probe. A destroyed connection leaves a
     * null slot (8 bytes) behind; the Conn itself is freed.
     */
    std::vector<std::unique_ptr<Conn>> conns_;
    SoftConnId nextConnId_ = 1;
    std::uint16_t nextEphemeralPort_ = 32768;

    sim::Counter segmentsSent_;
    sim::Counter segmentsRcvd_;
    sim::Counter retransmits_;
    sim::Counter connectionsOpened_;
};

} // namespace f4t::tcp

#endif // F4T_TCP_SOFT_TCP_HH
