/**
 * @file
 * The Packet structure moved across simulated links.
 *
 * A Packet carries parsed headers plus a pooled payload buffer (see
 * payload_buffer.hh — packet payloads are the simulator's dominant
 * allocation source, so their storage recycles through a free list
 * instead of the heap). For speed the simulator normally passes Packet
 * objects around without serializing, but serialize()/parseWire()
 * produce and consume the exact wire bytes (used in tests and wherever
 * checksums must be validated end to end).
 *
 * wireOverheadBytes matches the paper's accounting of 78 B per packet:
 * 18 B Ethernet header + FCS framing counted by the paper, 8 B preamble
 * and 12 B inter-frame gap, plus the 40 B TCP/IP headers carried
 * explicitly here.
 */

#ifndef F4T_NET_PACKET_HH
#define F4T_NET_PACKET_HH

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "net/four_tuple.hh"
#include "net/headers.hh"
#include "net/payload_buffer.hh"

namespace f4t::net
{

/** Non-header bytes the wire charges per frame: preamble + IFG + FCS. */
constexpr std::size_t wireFramingBytes = 8 + 12 + 4;

/** Direction-insensitive 32-bit hash of a connection tuple: both ends
 *  of one connection fold to the same value (Packet::flowHash32). */
std::uint32_t flowHash32(FourTuple tuple);

struct Packet
{
    EthernetHeader eth;

    /** L3/L4 content. ARP frames have no IPv4 header. */
    std::optional<Ipv4Header> ip;
    std::variant<std::monostate, TcpHeader, IcmpMessage, ArpMessage> l4;

    /** TCP or ICMP payload bytes (empty for pure control packets). */
    PayloadBuffer payload;

    /** Earliest tick this packet may start serializing on the wire.
     *  Metadata, not wire content: the batched TX path hands packets to
     *  the link synchronously and stamps the modeled readiness here
     *  instead of scheduling one host event per segment; the link takes
     *  max(now, txReady, transmitter busy) as the serialization start,
     *  so wire timing matches the event-per-packet path exactly. */
    std::uint64_t txReady = 0;

    bool isTcp() const { return std::holds_alternative<TcpHeader>(l4); }
    bool isIcmp() const { return std::holds_alternative<IcmpMessage>(l4); }
    bool isArp() const { return std::holds_alternative<ArpMessage>(l4); }

    TcpHeader &tcp() { return std::get<TcpHeader>(l4); }
    const TcpHeader &tcp() const { return std::get<TcpHeader>(l4); }
    IcmpMessage &icmp() { return std::get<IcmpMessage>(l4); }
    const IcmpMessage &icmp() const { return std::get<IcmpMessage>(l4); }
    ArpMessage &arp() { return std::get<ArpMessage>(l4); }
    const ArpMessage &arp() const { return std::get<ArpMessage>(l4); }

    /** Frame length on the cable excluding preamble/IFG/FCS. */
    std::size_t frameBytes() const;

    /**
     * Direction-insensitive 32-bit hash of the TCP connection tuple
     * (both directions of one connection fold to the same value), or
     * 0 for non-TCP frames: net::flowHash32 of the tuple. Used as the
     * flight recorder's flow key for network-layer records, matching
     * the decoder's --flow drill-down.
     */
    std::uint32_t flowHash32() const;

    /**
     * Bytes the link is occupied for: frame + preamble + IFG + FCS.
     * This is the length used by the link model's timing.
     */
    std::size_t wireBytes() const { return frameBytes() + wireFramingBytes; }

    /** Serialize the frame (Ethernet onward, no preamble/FCS). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Parse a frame produced by serialize(). Returns std::nullopt when
     * the bytes are malformed or an unsupported ethertype/protocol.
     */
    static std::optional<Packet>
    parseWire(std::span<const std::uint8_t> bytes);

    /** Convenience factory: a TCP packet with addressing filled in. */
    static Packet makeTcp(MacAddress src_mac, MacAddress dst_mac,
                          Ipv4Address src_ip, Ipv4Address dst_ip,
                          const TcpHeader &header,
                          PayloadBuffer payload = {});
};

} // namespace f4t::net

#endif // F4T_NET_PACKET_HH
