#include "packet_generator.hh"

#include "net/link.hh"
#include "sim/profile_scope.hh"

namespace f4t::core
{

PacketGenerator::PacketGenerator(sim::Simulation &sim, std::string name,
                                 sim::ClockDomain &domain)
    : SimObject(sim, std::move(name)), domain_(domain),
      segments_(sim.stats(), statName("segments"),
                "data segments generated"),
      controls_(sim.stats(), statName("controls"),
                "control packets generated"),
      retransmits_(sim.stats(), statName("retransmissions"),
                   "retransmitted segments"),
      payloadBytes_(sim.stats(), statName("payloadBytes"),
                    "payload bytes fetched and sent")
{}

sim::Tick
PacketGenerator::nextSlot()
{
    sim::Tick slot = busyUntil_ > now() ? busyUntil_ : now();
    busyUntil_ = slot + domain_.period();
    return slot;
}

void
PacketGenerator::emit(net::Packet &&pkt, sim::Tick when)
{
    sim::prof::Scope profile_scope(sim::prof::Cat::packetGen);
    f4t_assert(transmit_ != nullptr, "%s has no transmit sink",
               name().c_str());
    if (when <= now()) {
        transmit_(std::move(pkt));
        return;
    }
    if (net::datapathBatchingEnabled()) {
        // Hand the segment over now with its emission tick stamped:
        // the link serializes no earlier than txReady, so wire timing
        // matches the scheduled path without one host event per
        // segment.
        pkt.txReady = when;
        transmit_(std::move(pkt));
        return;
    }
    queue().scheduleCallback(when, sim::prof::Cat::packetGen, "pktgen.emit",
                             [this, p = std::move(pkt)]() mutable {
                                 transmit_(std::move(p));
                             });
}

void
PacketGenerator::requestSegments(const tcp::SegmentRequest &request)
{
    f4t_assert(lookup_ != nullptr, "%s has no address lookup",
               name().c_str());
    FlowAddress addr = lookup_(request.flow);

    std::uint32_t remaining = request.length;
    net::SeqNum seq = request.seq;
    while (remaining > 0) {
        std::uint32_t chunk =
            remaining < tcp::mssBytes ? remaining : tcp::mssBytes;

        net::TcpHeader tcp;
        tcp.srcPort = addr.tuple.localPort;
        tcp.dstPort = addr.tuple.remotePort;
        tcp.seq = seq;
        tcp.ack = request.ack;
        tcp.flags = net::TcpFlags::ack | net::TcpFlags::psh;
        tcp.window = request.window;

        net::PayloadBuffer payload(chunk);
        sim::Tick data_ready = now();
        if (payload_)
            data_ready = payload_->fetchPayload(request.flow, seq, payload);

        bool last = remaining == chunk;
        if (request.fin && last)
            tcp.flags |= net::TcpFlags::fin;

        net::Packet pkt = net::Packet::makeTcp(
            addr.localMac, addr.peerMac, addr.tuple.localIp,
            addr.tuple.remoteIp, tcp, std::move(payload));

        ++segments_;
        if (request.retransmission)
            ++retransmits_;
        payloadBytes_ += chunk;
        probe(request.retransmission ? sim::fr::Kind::pktgenRetransmit
                                     : sim::fr::Kind::pktgenSegment,
              request.flow, seq, chunk);

        sim::Tick slot = nextSlot();
        emit(std::move(pkt), slot > data_ready ? slot : data_ready);

        seq += chunk;
        remaining -= chunk;
    }
}

void
PacketGenerator::requestControl(const tcp::ControlRequest &request)
{
    f4t_assert(lookup_ != nullptr, "%s has no address lookup",
               name().c_str());
    FlowAddress addr = lookup_(request.flow);

    net::TcpHeader tcp;
    tcp.srcPort = addr.tuple.localPort;
    tcp.dstPort = addr.tuple.remotePort;
    tcp.seq = request.seq;
    tcp.ack = request.ack;
    tcp.flags = request.flags;
    tcp.window = request.window;
    tcp.mssOption = request.mssOption;

    net::PayloadBuffer payload;
    sim::Tick data_ready = now();
    if (request.windowProbe) {
        // One byte of already-queued data keeps the probe legal.
        payload.resize(1);
        if (payload_)
            data_ready =
                payload_->fetchPayload(request.flow, request.seq, payload);
    }

    net::Packet pkt = net::Packet::makeTcp(addr.localMac, addr.peerMac,
                                           addr.tuple.localIp,
                                           addr.tuple.remoteIp, tcp,
                                           std::move(payload));
    ++controls_;
    probe(sim::fr::Kind::pktgenControl, request.flow, request.seq,
          request.ack);
    sim::Tick slot = nextSlot();
    emit(std::move(pkt), slot > data_ready ? slot : data_ready);
}

} // namespace f4t::core
