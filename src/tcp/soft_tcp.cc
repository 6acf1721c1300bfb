#include "soft_tcp.hh"

#include <cmath>

#include "host/cost_model.hh"

namespace f4t::tcp
{

using net::SeqNum;
using net::TcpFlags;

const char *
toString(CostCategory category)
{
    switch (category) {
      case CostCategory::application: return "application";
      case CostCategory::tcpStack: return "tcpStack";
      case CostCategory::kernelOther: return "kernelOther";
      case CostCategory::f4tLibrary: return "f4tLibrary";
      case CostCategory::filesystem: return "filesystem";
    }
    return "?";
}

/** Per-connection state. Stream offsets are 64-bit and 0-based; byte 0
 *  is the first payload byte after the SYN. */
struct SoftTcpStack::Conn
{
    Conn(SoftConnId id_, std::size_t send_buf, std::size_t recv_buf)
        : id(id_), txRing(send_buf), rxRing(recv_buf)
    {}

    SoftConnId id;
    net::FourTuple tuple;
    net::MacAddress peerMac;
    ConnState state = ConnState::closed;
    bool passive = false;
    std::uint16_t listenPort = 0;

    // --- transmit ---------------------------------------------------------
    SeqNum iss = 0;
    net::ByteRing txRing;       ///< base = snd.una stream offset
    std::uint64_t sndNxt = 0;   ///< next stream offset to transmit
    std::uint32_t sndWnd = 0;
    bool closeRequested = false;
    bool finSent = false;
    bool finAcked = false;
    std::uint64_t finOffset = 0;
    bool sendBlocked = false;   ///< send() could not accept all bytes

    // --- receive ----------------------------------------------------------
    SeqNum irs = 0;
    net::ByteRing rxRing;       ///< base = application read offset
    std::uint64_t rcvNxt = 0;   ///< in-order reassembled boundary
    net::IntervalSet ooo;
    bool peerFin = false;
    bool peerFinDelivered = false;
    std::uint64_t peerFinOffset = 0;

    // --- congestion control (doubles; the "NS3 side" of Fig. 14) ----------
    double cwnd = 0;
    double ssthresh = 1e18;
    int dupAcks = 0;
    bool inRecovery = false;
    std::uint64_t recover = 0;
    // CUBIC state.
    double wMaxSeg = 0;
    double cubicK = 0;
    std::uint64_t epochStartUs = 0;
    double wEstGrowthSeg = 0; ///< TCP-friendly W_est's growth this epoch

    // --- RTT / RTO ----------------------------------------------------------
    double srttUs = 0;
    double rttvarUs = 0;
    double rtoUs = initialRtoUs;
    double lastRttUs = 0;
    bool sampling = false;
    std::uint64_t sampleOffset = 0;
    std::uint64_t sampleStartUs = 0;
    int rtxBackoff = 0;

    // --- timers --------------------------------------------------------------
    std::uint64_t timerGeneration = 0;
    /** TIME_WAIT expiry has its own generation: RTO cancellations
     *  caused by late duplicate ACKs must not squash it. */
    std::uint64_t twGeneration = 0;
    bool rtoArmed = false;

    std::uint64_t
    bytesInFlight() const
    {
        std::uint64_t end = sndNxt;
        return end - txRing.base();
    }

    std::uint64_t
    txEnd() const
    {
        return txRing.end();
    }

    std::uint32_t
    receiveWindow() const
    {
        std::size_t queued = static_cast<std::size_t>(
            rcvNxt - rxRing.base());
        std::size_t cap = rxRing.capacity();
        std::size_t wnd = queued >= cap ? 0 : cap - queued;
        return wnd > 0xffff'ffffULL ? 0xffff'ffffU
                                    : static_cast<std::uint32_t>(wnd);
    }

    /** Wire sequence number for a transmit stream offset. */
    SeqNum
    txWireSeq(std::uint64_t offset) const
    {
        return iss + 1 + static_cast<SeqNum>(offset);
    }

    /** Wire ACK number acknowledging everything reassembled. */
    SeqNum
    rxWireAck(bool fin_consumed) const
    {
        return irs + 1 + static_cast<SeqNum>(rcvNxt) +
               (fin_consumed ? 1 : 0);
    }

    /** Unwrap a wire sequence number into a receive stream offset. */
    std::int64_t
    rxStreamOffset(SeqNum seq) const
    {
        SeqNum base_wire = irs + 1 + static_cast<SeqNum>(rcvNxt);
        std::int32_t delta = net::seqDiff(seq, base_wire);
        return static_cast<std::int64_t>(rcvNxt) + delta;
    }

    /** Unwrap a wire ACK number into a transmit stream offset. */
    std::int64_t
    txStreamOffset(SeqNum ack) const
    {
        SeqNum base_wire = txWireSeq(txRing.base());
        std::int32_t delta = net::seqDiff(ack, base_wire);
        return static_cast<std::int64_t>(txRing.base()) + delta;
    }
};

SoftTcpStack::SoftTcpStack(sim::Simulation &sim, std::string name,
                           const SoftTcpConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      segmentsSent_(sim.stats(), statName("segmentsSent"),
                    "TCP segments transmitted"),
      segmentsRcvd_(sim.stats(), statName("segmentsReceived"),
                    "TCP segments received"),
      retransmits_(sim.stats(), statName("retransmissions"),
                   "segments retransmitted"),
      connectionsOpened_(sim.stats(), statName("connectionsOpened"),
                         "connections established")
{
    nextEphemeralPort_ = config_.ephemeralPortBase;
}

SoftTcpStack::~SoftTcpStack() = default;

std::uint64_t
SoftTcpStack::nowUs() const
{
    return now() / 1'000'000; // ticks are picoseconds
}

void
SoftTcpStack::chargeStack(double cycles)
{
    if (!accountant_ || cycles <= 0)
        return;
    double kernel = cycles * host::LinuxCosts::kernelShare;
    accountant_->charge(CostCategory::tcpStack, cycles - kernel);
    accountant_->charge(CostCategory::kernelOther, kernel);
}

net::MacAddress
SoftTcpStack::resolveMac(net::Ipv4Address ip) const
{
    auto it = arpTable_.find(ip.value);
    if (it == arpTable_.end())
        f4t_fatal("%s: no ARP entry for %s", name().c_str(),
                  ip.toString().c_str());
    return it->second;
}

SoftTcpStack::Conn *
SoftTcpStack::find(SoftConnId id)
{
    return id < conns_.size() ? conns_[id].get() : nullptr;
}

const SoftTcpStack::Conn *
SoftTcpStack::find(SoftConnId id) const
{
    return id < conns_.size() ? conns_[id].get() : nullptr;
}

SoftTcpStack::Conn &
SoftTcpStack::get(SoftConnId id)
{
    Conn *conn = find(id);
    f4t_assert(conn != nullptr, "%s: unknown connection %u", name().c_str(),
               id);
    return *conn;
}

void
SoftTcpStack::listen(std::uint16_t port)
{
    listeningPorts_.insert(port);
}

SoftConnId
SoftTcpStack::connect(net::Ipv4Address remote_ip, std::uint16_t remote_port)
{
    SoftConnId id = nextConnId_++;
    auto conn = std::make_unique<Conn>(id, config_.sendBufBytes,
                                       config_.recvBufBytes);
    conn->tuple = net::FourTuple{config_.ip, nextEphemeralPort_++,
                                 remote_ip, remote_port};
    conn->peerMac = resolveMac(remote_ip);
    conn->iss = static_cast<SeqNum>((id + 77) * 0x1f3a5c97u);
    setState(*conn, ConnState::synSent);
    conn->sndWnd = mssBytes; // until the peer advertises

    connByTuple_[conn->tuple] = id;
    Conn &ref = *conn;
    conns_.resize(id + 1); // ids are monotonic: id == old size
    conns_[id] = std::move(conn);

    sendControl(ref, TcpFlags::syn, /*with_mss=*/true);
    armRto(ref);
    return id;
}

std::size_t
SoftTcpStack::send(SoftConnId id, std::span<const std::uint8_t> data)
{
    // Upcalls are delivered with wakeup jitter, so an app can issue a
    // syscall against a connection the stack already destroyed (the
    // EBADF case on real kernels): tolerate it like readable()/close().
    Conn *conn_ptr = find(id);
    if (!conn_ptr)
        return 0;
    Conn &conn = *conn_ptr;
    if (conn.state != ConnState::established &&
        conn.state != ConnState::closeWait &&
        conn.state != ConnState::synSent) {
        return 0;
    }

    std::size_t accepted = conn.txRing.append(data);
    if (accepted < data.size())
        conn.sendBlocked = true;

    chargeStack(host::LinuxCosts::sendSyscall +
                host::LinuxCosts::sendPerByte * accepted);

    if (conn.state != ConnState::synSent)
        trySendData(conn);
    return accepted;
}

std::size_t
SoftTcpStack::recv(SoftConnId id, std::span<std::uint8_t> out)
{
    Conn *conn_ptr = find(id);
    if (!conn_ptr)
        return 0; // see send(): jitter-delayed upcall, EBADF semantics
    Conn &conn = *conn_ptr;
    std::size_t avail = static_cast<std::size_t>(
        conn.rcvNxt - conn.rxRing.base());
    std::size_t n = out.size() < avail ? out.size() : avail;
    if (n > 0) {
        conn.rxRing.copyOut(conn.rxRing.base(), out.subspan(0, n));
        conn.rxRing.release(n);
        // Window may have reopened; let the peer know if it was closed.
        if (conn.receiveWindow() >= mssBytes &&
            conn.receiveWindow() <
                static_cast<std::uint32_t>(mssBytes) * 2) {
            sendAck(conn);
        }
    }
    chargeStack(host::LinuxCosts::recvSyscall +
                host::LinuxCosts::recvPerByte * n);
    return n;
}

std::size_t
SoftTcpStack::readable(SoftConnId id) const
{
    const Conn *conn = find(id);
    if (!conn)
        return 0;
    return static_cast<std::size_t>(conn->rcvNxt - conn->rxRing.base());
}

std::size_t
SoftTcpStack::writable(SoftConnId id) const
{
    const Conn *conn = find(id);
    if (!conn)
        return 0;
    return conn->txRing.freeSpace();
}

void
SoftTcpStack::close(SoftConnId id)
{
    Conn *conn = find(id);
    if (!conn || conn->closeRequested)
        return;
    conn->closeRequested = true;
    maybeSendFin(*conn);
}

void
SoftTcpStack::abort(SoftConnId id)
{
    Conn *conn = find(id);
    if (!conn)
        return;
    sendReset(conn->tuple, conn->txWireSeq(conn->sndNxt),
              conn->rxWireAck(conn->peerFin), conn->peerMac);
    destroy(id);
}

ConnState
SoftTcpStack::state(SoftConnId id) const
{
    const Conn *conn = find(id);
    return conn ? conn->state : ConnState::closed;
}

double
SoftTcpStack::cwnd(SoftConnId id) const
{
    const Conn *conn = find(id);
    return conn ? conn->cwnd : 0.0;
}

// ---------------------------------------------------------------------
// receive path
// ---------------------------------------------------------------------

void
SoftTcpStack::receivePacket(net::Packet &&pkt)
{
    if (!pkt.isTcp())
        return; // ARP/ICMP handled statically in this stack
    if (!pkt.ip || pkt.ip->dst != config_.ip)
        return;
    ++segmentsRcvd_;
    chargeStack(host::LinuxCosts::rxSegment +
                host::LinuxCosts::rxPerByte *
                    static_cast<double>(pkt.payload.size()));
    handleTcp(pkt);
}

void
SoftTcpStack::handleTcp(const net::Packet &pkt)
{
    const net::TcpHeader &tcp = pkt.tcp();
    net::FourTuple tuple{config_.ip, tcp.dstPort, pkt.ip->src, tcp.srcPort};

    auto it = connByTuple_.find(tuple);
    if (it == connByTuple_.end()) {
        if (tcp.hasFlag(TcpFlags::syn) && !tcp.hasFlag(TcpFlags::ack) &&
            listeningPorts_.count(tcp.dstPort)) {
            handleListen(pkt, tcp.dstPort);
        } else if (!tcp.hasFlag(TcpFlags::rst)) {
            sendReset(tuple, tcp.ack, tcp.seq, pkt.eth.src);
        }
        return;
    }

    Conn &conn = get(it->second);
    conn.peerMac = pkt.eth.src;
    handleSegment(conn, tcp, pkt.payload);
}

void
SoftTcpStack::handleListen(const net::Packet &pkt, std::uint16_t port)
{
    const net::TcpHeader &tcp = pkt.tcp();

    SoftConnId id = nextConnId_++;
    auto conn = std::make_unique<Conn>(id, config_.sendBufBytes,
                                       config_.recvBufBytes);
    conn->tuple = net::FourTuple{config_.ip, port, pkt.ip->src, tcp.srcPort};
    conn->peerMac = pkt.eth.src;
    conn->passive = true;
    conn->listenPort = port;
    conn->iss = static_cast<SeqNum>((id + 77) * 0x1f3a5c97u);
    conn->irs = tcp.seq;
    setState(*conn, ConnState::synRcvd);
    conn->sndWnd = tcp.window;

    connByTuple_[conn->tuple] = id;
    Conn &ref = *conn;
    conns_.resize(id + 1); // ids are monotonic: id == old size
    conns_[id] = std::move(conn);

    sendControl(ref, TcpFlags::syn | TcpFlags::ack, /*with_mss=*/true);
    armRto(ref);
}

void
SoftTcpStack::handleSegment(Conn &conn, const net::TcpHeader &tcp,
                            std::span<const std::uint8_t> payload)
{
    if (tcp.hasFlag(TcpFlags::rst)) {
        if (callbacks_.onReset)
            callbacks_.onReset(conn.id);
        destroy(conn.id);
        return;
    }

    switch (conn.state) {
      case ConnState::synSent:
        if (tcp.hasFlag(TcpFlags::syn) && tcp.hasFlag(TcpFlags::ack) &&
            tcp.ack == conn.iss + 1) {
            conn.irs = tcp.seq;
            conn.sndWnd = tcp.window;
            setState(conn, ConnState::established);
            finishEstablishment(conn);
            sendAck(conn);
            trySendData(conn);
            maybeSendFin(conn);
        }
        return;

      case ConnState::synRcvd:
        if (tcp.hasFlag(TcpFlags::ack) && tcp.ack == conn.iss + 1) {
            conn.sndWnd = tcp.window;
            setState(conn, ConnState::established);
            finishEstablishment(conn);
            // Fall through to normal processing of any payload.
        } else if (tcp.hasFlag(TcpFlags::syn)) {
            // Our SYN-ACK was lost; retransmit it.
            sendControl(conn, TcpFlags::syn | TcpFlags::ack, true);
            return;
        } else {
            return;
        }
        break;

      case ConnState::established:
      case ConnState::finWait1:
      case ConnState::finWait2:
      case ConnState::closing:
      case ConnState::closeWait:
      case ConnState::lastAck:
      case ConnState::timeWait:
        break;

      case ConnState::closed:
      case ConnState::listen:
        return;
    }

    if (tcp.hasFlag(TcpFlags::ack)) {
        // processAck destroys the connection when the ACK completes
        // LAST_ACK, so re-look it up instead of touching `conn` after.
        const SoftConnId id = conn.id;
        processAck(conn, tcp);
        if (find(id) == nullptr)
            return;
    }

    if (!payload.empty() || tcp.hasFlag(TcpFlags::fin))
        acceptPayload(conn, tcp, payload);

    trySendData(conn);
    maybeSendFin(conn);
}

void
SoftTcpStack::processAck(Conn &conn, const net::TcpHeader &tcp)
{
    conn.sndWnd = tcp.window;

    std::int64_t ack_off = conn.txStreamOffset(tcp.ack);
    std::int64_t base = static_cast<std::int64_t>(conn.txRing.base());
    std::uint64_t now_us = nowUs();

    // Upper bound of what can legitimately be acknowledged.
    std::uint64_t max_ack = conn.sndNxt + (conn.finSent ? 1 : 0);

    if (ack_off > base && ack_off <= static_cast<std::int64_t>(max_ack)) {
        bool fin_covered =
            conn.finSent && ack_off >
                                static_cast<std::int64_t>(conn.finOffset);
        std::uint64_t data_ack =
            fin_covered ? conn.finOffset
                        : static_cast<std::uint64_t>(ack_off);
        std::uint32_t acked_data = static_cast<std::uint32_t>(
            data_ack - conn.txRing.base());

        if (acked_data > 0)
            conn.txRing.release(acked_data);

        // RTT sample (Karn-compliant: sampling is cancelled on rtx).
        if (conn.sampling &&
            static_cast<std::uint64_t>(ack_off) >= conn.sampleOffset) {
            updateRtt(conn, now_us);
        }
        conn.rtxBackoff = 0;

        if (conn.inRecovery) {
            if (static_cast<std::uint64_t>(ack_off) >= conn.recover) {
                ccOnExitRecovery(conn);
            } else {
                ccOnPartialAck(conn, acked_data);
                // Retransmit the next hole right away.
                std::uint64_t len = conn.txEnd() - conn.txRing.base();
                if (len > mssBytes)
                    len = mssBytes;
                if (len > 0) {
                    sendSegment(conn, conn.txRing.base(),
                                static_cast<std::uint32_t>(len), true);
                }
            }
        } else if (acked_data > 0) {
            ccOnAck(conn, acked_data, now_us);
            conn.dupAcks = 0;
        }

        if (fin_covered && !conn.finAcked) {
            conn.finAcked = true;
            switch (conn.state) {
              case ConnState::finWait1:
                setState(conn, ConnState::finWait2);
                break;
              case ConnState::closing:
                enterTimeWait(conn);
                break;
              case ConnState::lastAck:
                setState(conn, ConnState::closed);
                cancelRto(conn);
                if (callbacks_.onClosed)
                    callbacks_.onClosed(conn.id);
                destroy(conn.id);
                return;
              default:
                break;
            }
        }

        if (conn.bytesInFlight() == 0 &&
            !(conn.finSent && !conn.finAcked)) {
            cancelRto(conn);
        } else {
            armRto(conn);
        }

        if (conn.sendBlocked && conn.txRing.freeSpace() > 0) {
            conn.sendBlocked = false;
            if (callbacks_.onWritable)
                callbacks_.onWritable(conn.id);
        }
    } else if (ack_off == base && conn.sndNxt > conn.txRing.base()) {
        // Potential duplicate ACK (RFC 5681 heuristics).
        if (tcp.window == conn.sndWnd &&
            !tcp.hasFlag(TcpFlags::syn) && !tcp.hasFlag(TcpFlags::fin)) {
            ++conn.dupAcks;
            if (conn.inRecovery) {
                conn.cwnd += mssBytes;
                trySendData(conn);
            } else if (conn.dupAcks == 3) {
                ccOnDupAcks(conn, now_us);
                std::uint64_t len = conn.txEnd() - conn.txRing.base();
                if (len > mssBytes)
                    len = mssBytes;
                sendSegment(conn, conn.txRing.base(),
                            static_cast<std::uint32_t>(len), true);
            }
        }
    }
}

void
SoftTcpStack::acceptPayload(Conn &conn, const net::TcpHeader &tcp,
                            std::span<const std::uint8_t> payload)
{
    std::int64_t offset = conn.rxStreamOffset(tcp.seq);
    std::int64_t seg_end = offset + static_cast<std::int64_t>(payload.size());

    bool advanced = false;

    if (!payload.empty()) {
        std::int64_t wnd_end = static_cast<std::int64_t>(
            conn.rxRing.base() + conn.rxRing.capacity());
        std::int64_t accept_start =
            offset < static_cast<std::int64_t>(conn.rcvNxt)
                ? static_cast<std::int64_t>(conn.rcvNxt)
                : offset;
        std::int64_t accept_end = seg_end < wnd_end ? seg_end : wnd_end;

        if (accept_start < accept_end) {
            std::size_t skip =
                static_cast<std::size_t>(accept_start - offset);
            std::size_t len =
                static_cast<std::size_t>(accept_end - accept_start);
            conn.rxRing.writeAt(static_cast<std::uint64_t>(accept_start),
                                payload.subspan(skip, len));
            conn.ooo.insert(static_cast<std::uint64_t>(accept_start),
                            static_cast<std::uint64_t>(accept_end));
            std::uint64_t new_boundary = conn.ooo.contiguousEnd(conn.rcvNxt);
            if (new_boundary > conn.rcvNxt) {
                conn.rcvNxt = new_boundary;
                conn.ooo.eraseBelow(new_boundary);
                advanced = true;
            }
        }
    }

    if (tcp.hasFlag(TcpFlags::fin)) {
        conn.peerFin = true;
        conn.peerFinOffset = static_cast<std::uint64_t>(seg_end);
    }

    bool fin_consumed = conn.peerFin && conn.rcvNxt >= conn.peerFinOffset;
    if (fin_consumed && !conn.peerFinDelivered) {
        conn.peerFinDelivered = true;
        switch (conn.state) {
          case ConnState::established:
            setState(conn, ConnState::closeWait);
            break;
          case ConnState::finWait1:
            if (conn.finAcked)
                enterTimeWait(conn);
            else
                setState(conn, ConnState::closing);
            break;
          case ConnState::finWait2:
            enterTimeWait(conn);
            break;
          default:
            break;
        }
        if (callbacks_.onPeerClosed)
            callbacks_.onPeerClosed(conn.id);
    }

    // Acknowledge every received segment (ACK-clock the sender; a
    // below-boundary segment generates the duplicate ACK the sender's
    // fast retransmit needs).
    sendAck(conn);

    if (advanced)
        notifyReadable(conn);
}

void
SoftTcpStack::notifyReadable(Conn &conn)
{
    std::size_t avail =
        static_cast<std::size_t>(conn.rcvNxt - conn.rxRing.base());
    if (avail > 0 && callbacks_.onReadable)
        callbacks_.onReadable(conn.id, avail);
}

// ---------------------------------------------------------------------
// transmit path
// ---------------------------------------------------------------------

void
SoftTcpStack::trySendData(Conn &conn)
{
    if (conn.state != ConnState::established &&
        conn.state != ConnState::closeWait) {
        return;
    }

    while (conn.sndNxt < conn.txEnd()) {
        double wnd = conn.cwnd < static_cast<double>(conn.sndWnd)
                         ? conn.cwnd
                         : static_cast<double>(conn.sndWnd);
        std::uint64_t in_flight = conn.bytesInFlight();
        if (static_cast<double>(in_flight) >= wnd)
            break;
        std::uint64_t usable =
            static_cast<std::uint64_t>(wnd) - in_flight;
        std::uint64_t len = conn.txEnd() - conn.sndNxt;
        if (len > usable)
            len = usable;
        if (len > mssBytes)
            len = mssBytes;
        if (len == 0)
            break;
        sendSegment(conn, conn.sndNxt, static_cast<std::uint32_t>(len),
                    false);
        conn.sndNxt += len;
    }

    if (conn.sndWnd == 0 && conn.sndNxt < conn.txEnd()) {
        // Zero-window persist: reuse the RTO machinery as the probe
        // timer (onRtoFire emits a probe when the window is closed).
        armRto(conn);
    }
}

void
SoftTcpStack::maybeSendFin(Conn &conn)
{
    bool can = conn.state == ConnState::established ||
               conn.state == ConnState::closeWait;
    if (!can || !conn.closeRequested || conn.finSent)
        return;
    if (conn.sndNxt < conn.txEnd())
        return; // data still queued

    conn.finOffset = conn.sndNxt;
    conn.finSent = true;
    sendControl(conn, TcpFlags::fin | TcpFlags::ack);
    setState(conn, conn.state == ConnState::established
                       ? ConnState::finWait1
                       : ConnState::lastAck);
    armRto(conn);
}

void
SoftTcpStack::sendSegment(Conn &conn, std::uint64_t stream_offset,
                          std::uint32_t length, bool retransmission)
{
    f4t_assert(transmit_ != nullptr, "%s has no transmit function",
               name().c_str());

    net::PayloadBuffer payload(length);
    conn.txRing.copyOut(stream_offset, payload);

    net::TcpHeader tcp;
    tcp.srcPort = conn.tuple.localPort;
    tcp.dstPort = conn.tuple.remotePort;
    tcp.seq = conn.txWireSeq(stream_offset);
    tcp.ack = conn.rxWireAck(conn.peerFin &&
                             conn.rcvNxt >= conn.peerFinOffset);
    tcp.flags = TcpFlags::ack | TcpFlags::psh;
    tcp.window = conn.receiveWindow();

    net::Packet pkt = net::Packet::makeTcp(config_.mac, conn.peerMac,
                                           config_.ip, conn.tuple.remoteIp,
                                           tcp, std::move(payload));
    ++segmentsSent_;
    if (retransmission) {
        ++retransmits_;
        conn.sampling = false; // Karn's rule
    } else if (!conn.sampling) {
        conn.sampling = true;
        conn.sampleOffset = stream_offset + length;
        conn.sampleStartUs = nowUs();
    }
    chargeStack(host::LinuxCosts::txSegment);
    transmit_(std::move(pkt));
    armRto(conn);
}

void
SoftTcpStack::sendControl(Conn &conn, std::uint8_t flags, bool with_mss)
{
    f4t_assert(transmit_ != nullptr, "%s has no transmit function",
               name().c_str());

    net::TcpHeader tcp;
    tcp.srcPort = conn.tuple.localPort;
    tcp.dstPort = conn.tuple.remotePort;
    tcp.flags = flags;
    tcp.window = conn.receiveWindow();
    if (with_mss)
        tcp.mssOption = mssBytes;

    if (flags & TcpFlags::syn) {
        tcp.seq = conn.iss;
    } else if (flags & TcpFlags::fin) {
        tcp.seq = conn.txWireSeq(conn.finOffset);
    } else {
        tcp.seq = conn.txWireSeq(conn.sndNxt);
    }
    if (flags & TcpFlags::ack) {
        tcp.ack = conn.rxWireAck(conn.peerFin &&
                                 conn.rcvNxt >= conn.peerFinOffset);
    }

    net::Packet pkt = net::Packet::makeTcp(config_.mac, conn.peerMac,
                                           config_.ip,
                                           conn.tuple.remoteIp, tcp);
    ++segmentsSent_;
    chargeStack(host::LinuxCosts::txSegment);
    transmit_(std::move(pkt));
}

void
SoftTcpStack::sendAck(Conn &conn)
{
    sendControl(conn, TcpFlags::ack);
}

void
SoftTcpStack::sendReset(const net::FourTuple &tuple, net::SeqNum seq,
                        net::SeqNum ack, net::MacAddress dst_mac)
{
    if (!transmit_)
        return;
    net::TcpHeader tcp;
    tcp.srcPort = tuple.localPort;
    tcp.dstPort = tuple.remotePort;
    tcp.flags = TcpFlags::rst | TcpFlags::ack;
    tcp.seq = seq;
    tcp.ack = ack;
    net::Packet pkt = net::Packet::makeTcp(config_.mac, dst_mac, config_.ip,
                                           tuple.remoteIp, tcp);
    ++segmentsSent_;
    transmit_(std::move(pkt));
}

// ---------------------------------------------------------------------
// timers
// ---------------------------------------------------------------------

void
SoftTcpStack::armRto(Conn &conn)
{
    double rto = conn.rtoUs;
    for (int i = 0; i < conn.rtxBackoff; ++i)
        rto *= 2;
    if (rto > maxRtoUs)
        rto = maxRtoUs;

    conn.rtoArmed = true;
    std::uint64_t generation = ++conn.timerGeneration;
    SoftConnId id = conn.id;
    queue().scheduleCallback(
        now() + sim::microsecondsToTicks(rto), sim::prof::Cat::hostComplex,
        "softtcp.rto", [this, id, generation] { onRtoFire(id, generation); });
}

void
SoftTcpStack::cancelRto(Conn &conn)
{
    conn.rtoArmed = false;
    ++conn.timerGeneration; // squash any scheduled firing
}

void
SoftTcpStack::onRtoFire(SoftConnId id, std::uint64_t generation)
{
    Conn *conn = find(id);
    if (!conn || !conn->rtoArmed || conn->timerGeneration != generation)
        return;

    std::uint64_t now_us = nowUs();

    switch (conn->state) {
      case ConnState::synSent:
        ++conn->rtxBackoff;
        ++retransmits_;
        sendControl(*conn, TcpFlags::syn, true);
        armRto(*conn);
        return;
      case ConnState::synRcvd:
        ++conn->rtxBackoff;
        ++retransmits_;
        sendControl(*conn, TcpFlags::syn | TcpFlags::ack, true);
        armRto(*conn);
        return;
      default:
        break;
    }

    if (conn->sndWnd == 0 && conn->sndNxt < conn->txEnd() &&
        conn->bytesInFlight() == 0) {
        // Zero-window probe: a single byte keeps the ACK flow alive.
        sendSegment(*conn, conn->sndNxt, 1, false);
        conn->sndNxt += 1;
        armRto(*conn);
        return;
    }

    bool fin_outstanding = conn->finSent && !conn->finAcked;
    if (conn->bytesInFlight() == 0 && !fin_outstanding)
        return; // stale timer

    ccOnTimeout(*conn, now_us);
    ++conn->rtxBackoff;

    if (conn->bytesInFlight() > 0) {
        std::uint64_t len = conn->sndNxt - conn->txRing.base();
        if (len > mssBytes)
            len = mssBytes;
        sendSegment(*conn, conn->txRing.base(),
                    static_cast<std::uint32_t>(len), true);
    } else if (fin_outstanding) {
        ++retransmits_;
        sendControl(*conn, TcpFlags::fin | TcpFlags::ack);
    }
    armRto(*conn);
}

void
SoftTcpStack::enterTimeWait(Conn &conn)
{
    setState(conn, ConnState::timeWait);
    cancelRto(conn);
    SoftConnId id = conn.id;
    std::uint64_t generation = ++conn.twGeneration;
    queue().scheduleCallback(
        now() + sim::microsecondsToTicks(timeWaitUs),
        sim::prof::Cat::hostComplex, "softtcp.timewait",
        [this, id, generation] {
            Conn *c = find(id);
            if (!c || c->twGeneration != generation)
                return;
            if (callbacks_.onClosed)
                callbacks_.onClosed(id);
            destroy(id);
        });
}

void
SoftTcpStack::setState(Conn &conn, ConnState next)
{
    probe(sim::fr::Kind::softTcpState, conn.id,
          static_cast<std::uint64_t>(conn.state),
          static_cast<std::uint64_t>(next));
    conn.state = next;
}

void
SoftTcpStack::destroy(SoftConnId id)
{
    Conn *conn = find(id);
    if (!conn)
        return;
    connByTuple_.erase(conn->tuple);
    conns_[id].reset();
}

void
SoftTcpStack::finishEstablishment(Conn &conn)
{
    ccInit(conn);
    cancelRto(conn);
    ++connectionsOpened_;
    chargeStack(host::LinuxCosts::connectionSetup);
    if (conn.passive) {
        if (callbacks_.onAccept)
            callbacks_.onAccept(conn.id, conn.listenPort);
    } else {
        if (callbacks_.onConnected)
            callbacks_.onConnected(conn.id);
    }
}

void
SoftTcpStack::updateRtt(Conn &conn, std::uint64_t now_us)
{
    conn.sampling = false;
    double sample = static_cast<double>(now_us - conn.sampleStartUs);
    if (sample < 1)
        sample = 1;
    conn.lastRttUs = sample;

    if (conn.srttUs == 0) {
        conn.srttUs = sample;
        conn.rttvarUs = sample / 2;
    } else {
        double err = std::abs(sample - conn.srttUs);
        conn.rttvarUs = 0.75 * conn.rttvarUs + 0.25 * err;
        conn.srttUs = 0.875 * conn.srttUs + 0.125 * sample;
    }
    double rto = conn.srttUs + std::max(minRtoUs / 2.0,
                                        4.0 * conn.rttvarUs);
    if (rto < minRtoUs)
        rto = minRtoUs;
    if (rto > maxRtoUs)
        rto = maxRtoUs;
    conn.rtoUs = rto;
}

// ---------------------------------------------------------------------
// congestion control (independent, floating point)
// ---------------------------------------------------------------------

void
SoftTcpStack::ccInit(Conn &conn)
{
    conn.cwnd = 10.0 * mssBytes;
    conn.ssthresh = 1e18;
    conn.dupAcks = 0;
    conn.inRecovery = false;
    conn.wMaxSeg = 0;
    conn.epochStartUs = 0;
}

void
SoftTcpStack::ccOnAck(Conn &conn, std::uint32_t acked, std::uint64_t now_us)
{
    const double mss = mssBytes;

    if (conn.cwnd < conn.ssthresh) {
        // Slow start (both algorithms).
        conn.cwnd += std::min<double>(acked, mss);
        return;
    }

    if (config_.cc == SoftCcAlgo::newReno) {
        conn.cwnd += mss * mss / conn.cwnd;
        return;
    }

    // CUBIC congestion avoidance (RFC 8312, floating point).
    constexpr double C = 0.4;
    if (conn.epochStartUs == 0) {
        cubicStartEpoch(conn, now_us);
    }
    double t = static_cast<double>(now_us - conn.epochStartUs) / 1e6;
    double d = t - conn.cubicK;
    double w_cubic_seg = C * d * d * d + conn.wMaxSeg;

    // TCP-friendly estimate (RFC 8312 §4.2): W_est grows 3(1-β)/(1+β)
    // ≈ 0.53 segments per RTT, so that times acked/cwnd per ACK.
    constexpr double beta = 0.7;
    conn.wEstGrowthSeg +=
        (3.0 * (1.0 - beta) / (1.0 + beta)) * acked / conn.cwnd;
    double w_est_seg = conn.wMaxSeg * beta + conn.wEstGrowthSeg;
    double target_seg = std::max(w_cubic_seg, w_est_seg);
    double target = std::max(target_seg * mss, 2.0 * mss);

    if (target > conn.cwnd) {
        conn.cwnd += (target - conn.cwnd) * acked / conn.cwnd;
    } else {
        conn.cwnd += 0.01 * acked;
    }
}

void
SoftTcpStack::cubicStartEpoch(Conn &conn, std::uint64_t now_us)
{
    constexpr double C = 0.4;
    conn.epochStartUs = now_us;
    conn.wEstGrowthSeg = 0;
    double cwnd_seg = conn.cwnd / mssBytes;
    if (conn.wMaxSeg < cwnd_seg)
        conn.wMaxSeg = cwnd_seg;
    double delta = conn.wMaxSeg - cwnd_seg;
    conn.cubicK = delta > 0 ? std::cbrt(delta / C) : 0.0;
}

void
SoftTcpStack::ccOnDupAcks(Conn &conn, std::uint64_t now_us)
{
    const double mss = mssBytes;
    double flight = static_cast<double>(conn.bytesInFlight());

    if (config_.cc == SoftCcAlgo::newReno) {
        conn.ssthresh = std::max(flight / 2.0, 2.0 * mss);
    } else {
        constexpr double beta = 0.7;
        double cwnd_seg = conn.cwnd / mss;
        // Fast convergence.
        if (cwnd_seg < conn.wMaxSeg)
            conn.wMaxSeg = cwnd_seg * (1.0 + beta) / 2.0;
        else
            conn.wMaxSeg = cwnd_seg;
        conn.ssthresh = std::max(conn.cwnd * beta, 2.0 * mss);
        conn.epochStartUs = 0; // re-derive K on the next ACK
        (void)now_us;
    }
    conn.recover = conn.sndNxt;
    conn.inRecovery = true;
    conn.cwnd = conn.ssthresh + 3.0 * mss;
    conn.sampling = false;
}

void
SoftTcpStack::ccOnPartialAck(Conn &conn, std::uint32_t acked)
{
    const double mss = mssBytes;
    double deflate = static_cast<double>(acked);
    conn.cwnd = std::max(conn.cwnd - deflate + mss, mss);
}

void
SoftTcpStack::ccOnExitRecovery(Conn &conn)
{
    conn.inRecovery = false;
    conn.dupAcks = 0;
    conn.cwnd = conn.ssthresh;
}

void
SoftTcpStack::ccOnTimeout(Conn &conn, std::uint64_t now_us)
{
    const double mss = mssBytes;
    double flight = static_cast<double>(conn.bytesInFlight());

    if (config_.cc == SoftCcAlgo::cubic) {
        double cwnd_seg = conn.cwnd / mss;
        conn.wMaxSeg = cwnd_seg;
        conn.epochStartUs = 0;
        (void)now_us;
    }
    conn.ssthresh = std::max(flight / 2.0, 2.0 * mss);
    conn.cwnd = mss;
    conn.inRecovery = false;
    conn.dupAcks = 0;
    conn.sampling = false;
}

} // namespace f4t::tcp
