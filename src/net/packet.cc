#include "packet.hh"

#include "net/four_tuple.hh"

#include <tuple>

namespace f4t::net
{

std::size_t
Packet::frameBytes() const
{
    std::size_t len = EthernetHeader::wireSize;
    if (ip)
        len += Ipv4Header::wireSize;
    if (isTcp())
        len += tcp().wireSize();
    else if (isIcmp())
        len += icmp().wireSize() - icmp().payload.size();
    else if (isArp())
        len += ArpMessage::wireSize;
    len += payload.size();
    // Minimum Ethernet frame is 60 B before FCS; short frames are padded.
    return len < 60 ? 60 : len;
}

std::uint32_t
flowHash32(FourTuple t)
{
    // Canonical orientation so both directions fold to one key.
    if (std::tie(t.localIp.value, t.localPort) >
        std::tie(t.remoteIp.value, t.remotePort)) {
        t = t.reversed();
    }
    std::size_t h = FourTupleHash{}(t);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint32_t
Packet::flowHash32() const
{
    if (!isTcp() || !ip)
        return 0;
    const TcpHeader &hdr = tcp();
    return net::flowHash32({ip->src, hdr.srcPort, ip->dst, hdr.dstPort});
}

std::vector<std::uint8_t>
Packet::serialize() const
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    eth.serialize(w);
    if (isArp()) {
        arp().serialize(w);
    } else if (ip) {
        Ipv4Header ip_copy = *ip;
        std::size_t l4_len = 0;
        if (isTcp())
            l4_len = tcp().wireSize() + payload.size();
        else if (isIcmp())
            l4_len = icmp().wireSize();
        ip_copy.totalLength =
            static_cast<std::uint16_t>(Ipv4Header::wireSize + l4_len);
        ip_copy.serialize(w);
        if (isTcp()) {
            TcpHeader tcp_copy = tcp();
            tcp_copy.checksum =
                tcp_copy.computeChecksum(ip_copy.src, ip_copy.dst, payload);
            tcp_copy.serialize(w);
            w.bytes(payload);
        } else if (isIcmp()) {
            icmp().serialize(w);
        }
    }
    // Pad to the 60 B minimum frame size.
    while (out.size() < 60)
        out.push_back(0);
    return out;
}

std::optional<Packet>
Packet::parseWire(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    Packet pkt;
    pkt.eth = EthernetHeader::parse(r);
    if (!r.ok())
        return std::nullopt;

    if (pkt.eth.etherType == EthernetHeader::typeArp) {
        pkt.l4 = ArpMessage::parse(r);
        return r.ok() ? std::optional<Packet>(std::move(pkt)) : std::nullopt;
    }
    if (pkt.eth.etherType != EthernetHeader::typeIpv4)
        return std::nullopt;

    Ipv4Header ip = Ipv4Header::parse(r);
    if (!r.ok())
        return std::nullopt;
    if (ip.totalLength < Ipv4Header::wireSize)
        return std::nullopt;
    std::size_t l4_len = ip.totalLength - Ipv4Header::wireSize;
    if (l4_len > r.remaining())
        return std::nullopt;
    pkt.ip = ip;

    if (ip.protocol == Ipv4Header::protoTcp) {
        TcpHeader tcp = TcpHeader::parse(r);
        if (!r.ok() || l4_len < tcp.wireSize())
            return std::nullopt;
        pkt.l4 = tcp;
        pkt.payload.resize(l4_len - tcp.wireSize());
        r.bytes(pkt.payload);
    } else if (ip.protocol == Ipv4Header::protoIcmp) {
        // ICMP payload length is bounded by the IPv4 total length, not
        // by the padded frame size.
        std::vector<std::uint8_t> icmp_bytes(l4_len);
        r.bytes(icmp_bytes);
        if (!r.ok())
            return std::nullopt;
        ByteReader icmp_reader(icmp_bytes);
        pkt.l4 = IcmpMessage::parse(icmp_reader);
    } else {
        return std::nullopt;
    }
    return r.ok() ? std::optional<Packet>(std::move(pkt)) : std::nullopt;
}

Packet
Packet::makeTcp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, const TcpHeader &header,
                PayloadBuffer payload)
{
    Packet pkt;
    pkt.eth.src = src_mac;
    pkt.eth.dst = dst_mac;
    pkt.eth.etherType = EthernetHeader::typeIpv4;
    Ipv4Header ip;
    ip.src = src_ip;
    ip.dst = dst_ip;
    ip.protocol = Ipv4Header::protoTcp;
    ip.totalLength = static_cast<std::uint16_t>(
        Ipv4Header::wireSize + header.wireSize() + payload.size());
    pkt.ip = ip;
    pkt.l4 = header;
    pkt.payload = std::move(payload);
    return pkt;
}

} // namespace f4t::net
