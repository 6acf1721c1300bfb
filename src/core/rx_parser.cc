#include "rx_parser.hh"

#include "sim/profile_scope.hh"

namespace f4t::core
{

using net::SeqNum;
using net::TcpFlags;

RxParser::RxParser(sim::Simulation &sim, std::string name,
                   FlowLookup &flow_table, const RxParserConfig &config)
    : SimObject(sim, std::move(name)), flowTable_(flow_table),
      config_(config),
      packetsParsed_(sim.stats(), statName("packetsParsed"),
                     "TCP packets parsed"),
      packetsDropped_(sim.stats(), statName("packetsDropped"),
                      "packets dropped (no flow / chunk overflow)"),
      oooChunksMerged_(sim.stats(), statName("oooChunksMerged"),
                       "out-of-sequence chunks merged"),
      payloadBytesAccepted_(sim.stats(), statName("payloadBytesAccepted"),
                            "payload bytes DMAed to host buffers")
{}

std::uint64_t
RxParser::unwrap(const FlowState &state, SeqNum seq) const
{
    SeqNum reference = static_cast<SeqNum>(state.rcvUpToExt);
    std::int32_t delta = net::seqDiff(seq, reference);
    return state.rcvUpToExt + delta;
}

void
RxParser::processPacket(const net::Packet &pkt)
{
    sim::prof::Scope profile_scope(sim::prof::Cat::rxParse);
    const net::TcpHeader &tcp = pkt.tcp();
    net::FourTuple tuple{pkt.ip->dst, tcp.dstPort, pkt.ip->src,
                         tcp.srcPort};

    auto flow_opt = flowTable_.find(tuple);
    tcp::FlowId flow;
    if (!flow_opt) {
        // Unknown 4-tuple: only a SYN to a listening port creates a
        // flow; everything else is dropped (the engine answers RST
        // for clarity at a higher layer if configured).
        bool pure_syn = tcp.hasFlag(TcpFlags::syn) &&
                        !tcp.hasFlag(TcpFlags::ack);
        if (!pure_syn || !synHandler_) {
            ++packetsDropped_;
            probe(sim::fr::Kind::rxDropUnknown, pkt.flowHash32(),
                  tcp.srcPort, tcp.dstPort);
            return;
        }
        flow = synHandler_(tuple, pkt.eth.src);
        if (flow == tcp::invalidFlowId) {
            ++packetsDropped_;
            probe(sim::fr::Kind::rxSynReject, pkt.flowHash32(),
                  tcp.srcPort, tcp.dstPort);
            return;
        }
    } else {
        flow = *flow_opt;
    }

    ++packetsParsed_;
    probe(sim::fr::Kind::rxParse, flow, tcp.seq, pkt.payload.size());
    FlowState &state = flowSlot(flow);

    tcp::TcpEvent event;
    event.flow = flow;
    event.type = tcp::TcpEventType::rxSegment;
    event.peerAck = tcp.ack;
    event.peerWnd = tcp.window;
    event.tcpFlags = tcp.flags &
                     (TcpFlags::ack | TcpFlags::rst);

    if (tcp.hasFlag(TcpFlags::syn)) {
        if (!state.synSeen) {
            state.synSeen = true;
            state.irs = tcp.seq;
            state.rcvUpToExt = 0x1'0000'0000ULL +
                               static_cast<std::uint64_t>(
                                   static_cast<SeqNum>(tcp.seq + 1));
            state.userReadExt = state.rcvUpToExt;
        }
        event.tcpFlags |= TcpFlags::syn;
        event.peerIsn = state.irs;
    }

    if (state.synSeen && !pkt.payload.empty()) {
        std::uint64_t seg_start = unwrap(state, tcp.seq);
        std::uint64_t seg_end = seg_start + pkt.payload.size();

        // Window clipping: accept [rcvUpTo, userRead + buffer).
        std::uint64_t accept_lo = seg_start > state.rcvUpToExt
                                      ? seg_start
                                      : state.rcvUpToExt;
        std::uint64_t accept_hi =
            state.userReadExt + config_.receiveBufferBytes;
        if (seg_end < accept_hi)
            accept_hi = seg_end;

        if (accept_lo < accept_hi) {
            bool new_chunk = !state.ooo.contains(accept_lo, accept_hi);
            if (new_chunk &&
                state.ooo.chunkCount() >= config_.maxOooChunks &&
                accept_lo != state.rcvUpToExt) {
                // Chunk storage exhausted: drop; retransmission heals.
                ++packetsDropped_;
                probe(sim::fr::Kind::rxOooDrop, flow, tcp.seq,
                      pkt.payload.size());
            } else {
                std::size_t skip =
                    static_cast<std::size_t>(accept_lo - seg_start);
                std::size_t len =
                    static_cast<std::size_t>(accept_hi - accept_lo);
                if (payloadSink_) {
                    payloadSink_->deliverPayload(
                        flow, static_cast<SeqNum>(accept_lo),
                        std::span<const std::uint8_t>(pkt.payload)
                            .subspan(skip, len));
                }
                payloadBytesAccepted_ += len;
                if (accept_lo == state.rcvUpToExt && state.ooo.empty()) {
                    // In order with no chunk held: inserting the range
                    // and erasing it again below the new boundary would
                    // leave the set empty and count no merge.
                    state.rcvUpToExt = accept_hi;
                } else {
                    std::size_t before = state.ooo.chunkCount();
                    state.ooo.insert(accept_lo, accept_hi);
                    if (state.ooo.chunkCount() <= before)
                        ++oooChunksMerged_;

                    std::uint64_t boundary =
                        state.ooo.contiguousEnd(state.rcvUpToExt);
                    if (boundary > state.rcvUpToExt) {
                        state.rcvUpToExt = boundary;
                        state.ooo.eraseBelow(boundary);
                    }
                }
            }
        }
        event.dataArrived = true;
    }

    if (state.synSeen && tcp.hasFlag(TcpFlags::fin) &&
        !state.finRecorded) {
        state.finRecorded = true;
        state.finSeqExt = unwrap(state, tcp.seq) + pkt.payload.size();
    }

    // The FIN occupies one sequence number once all data before it is
    // reassembled; the flag is reported exactly once.
    if (state.finRecorded && !state.finReassembled &&
        state.rcvUpToExt == state.finSeqExt) {
        state.rcvUpToExt += 1;
        state.finReassembled = true;
        event.tcpFlags |= TcpFlags::fin;
    }

    event.rcvUpTo = static_cast<SeqNum>(state.rcvUpToExt);

    if (eventSink_)
        eventSink_(event);
}

void
RxParser::onUserRead(tcp::FlowId flow, SeqNum read_ptr)
{
    if (flow >= flows_.size() || !flows_[flow].present)
        return;
    FlowState &state = flows_[flow];
    SeqNum reference = static_cast<SeqNum>(state.userReadExt);
    std::int32_t delta = net::seqDiff(read_ptr, reference);
    if (delta > 0)
        state.userReadExt += delta;
}

void
RxParser::dropFlow(tcp::FlowId flow)
{
    if (flow < flows_.size())
        flows_[flow] = FlowState{};
}

SeqNum
RxParser::rxStart(tcp::FlowId flow) const
{
    if (flow >= flows_.size() || !flows_[flow].synSeen)
        return 0;
    return flows_[flow].irs + 1;
}

std::size_t
RxParser::oooChunks(tcp::FlowId flow) const
{
    return flow < flows_.size() ? flows_[flow].ooo.chunkCount() : 0;
}

RxParser::FlowState &
RxParser::flowSlot(tcp::FlowId flow)
{
    if (flow >= flows_.size())
        flows_.resize(flow + 1);
    FlowState &state = flows_[flow];
    state.present = true;
    return state;
}

} // namespace f4t::core
