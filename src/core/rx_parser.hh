/**
 * @file
 * The RX parser (Section 4.1.2): pre-processes received packets into
 * events.
 *
 * For every TCP packet it (1) retrieves the flow ID from a cuckoo hash
 * over the 4-tuple, (2) DMAs the payload into the host TCP data buffer
 * if it fits the receive window — in order or not — and (3) performs
 * logical reassembly: out-of-sequence chunks are recorded and merged,
 * and the application-visible boundary only advances over contiguous
 * data. The resulting event carries only cumulative state (peer ACK,
 * window, the reassembled boundary) plus flags, which is what lets the
 * event handler accumulate it by overwriting.
 *
 * SYN packets for listening ports allocate new flows through the
 * engine. The hardware bounds per-flow out-of-sequence chunk storage;
 * packets beyond the bound are dropped (TCP retransmission recovers).
 */

#ifndef F4T_CORE_RX_PARSER_HH
#define F4T_CORE_RX_PARSER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/cuckoo_hash.hh"
#include "net/four_tuple.hh"
#include "net/interval_set.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"
#include "tcp/tcb.hh"

namespace f4t::core
{

/** Receives in-window payload for delivery to the host buffer. */
class PayloadSink
{
  public:
    virtual ~PayloadSink() = default;

    /** DMA @p data to the flow's receive buffer at wire seq @p seq. */
    virtual void deliverPayload(tcp::FlowId flow, net::SeqNum seq,
                                std::span<const std::uint8_t> data) = 0;
};

struct RxParserConfig
{
    std::size_t maxFlows = 65536;
    std::size_t receiveBufferBytes = 512 * 1024;
    std::size_t maxOooChunks = 16;
};

class RxParser : public sim::SimObject
{
  public:
    using FlowLookup = net::CuckooHashTable<net::FourTuple, tcp::FlowId,
                                            net::FourTupleHash>;
    using EventSink = std::function<void(const tcp::TcpEvent &)>;
    /** Allocate a flow for an incoming SYN; invalidFlowId refuses. */
    using SynHandler = std::function<tcp::FlowId(
        const net::FourTuple &tuple, net::MacAddress peer_mac)>;

    RxParser(sim::Simulation &sim, std::string name,
             FlowLookup &flow_table, const RxParserConfig &config);

    void setEventSink(EventSink sink) { eventSink_ = std::move(sink); }
    void setSynHandler(SynHandler handler) { synHandler_ = std::move(handler); }
    void setPayloadSink(PayloadSink *sink) { payloadSink_ = sink; }

    /** Process one received TCP packet. */
    void processPacket(const net::Packet &pkt);

    /** Advance the window base when the application consumes data. */
    void onUserRead(tcp::FlowId flow, net::SeqNum read_ptr);

    /** Forget the reassembly state of a recycled flow. */
    void dropFlow(tcp::FlowId flow);

    /** The peer's initial receive pointer (irs + 1), once known. */
    net::SeqNum rxStart(tcp::FlowId flow) const;

    /** Out-of-sequence chunks held for @p flow (0 for an unknown one). */
    std::size_t oooChunks(tcp::FlowId flow) const;

    std::uint64_t packetsParsed() const { return packetsParsed_.value(); }
    std::uint64_t packetsDropped() const { return packetsDropped_.value(); }

  private:
    struct FlowState
    {
        /** Slot holds live reassembly state (dense array occupancy). */
        bool present = false;
        bool synSeen = false;
        net::SeqNum irs = 0;
        /** Unwrapped reassembled boundary (64-bit extension of seq). */
        std::uint64_t rcvUpToExt = 0;
        /** Base for window clipping (advanced by user reads). */
        std::uint64_t userReadExt = 0;
        net::IntervalSet ooo;
        bool finRecorded = false;
        std::uint64_t finSeqExt = 0;
        bool finReassembled = false;
    };

    std::uint64_t unwrap(const FlowState &state, net::SeqNum seq) const;

    /** Dense per-flow slot, grown on demand; replaces the per-packet
     *  hash lookup with an array index (flow IDs are small engine-
     *  allocated integers). */
    FlowState &flowSlot(tcp::FlowId flow);

    FlowLookup &flowTable_;
    RxParserConfig config_;
    EventSink eventSink_;
    SynHandler synHandler_;
    PayloadSink *payloadSink_ = nullptr;

    std::vector<FlowState> flows_;

    sim::Counter packetsParsed_;
    sim::Counter packetsDropped_;
    sim::Counter oooChunksMerged_;
    sim::Counter payloadBytesAccepted_;
};

} // namespace f4t::core

#endif // F4T_CORE_RX_PARSER_HH
