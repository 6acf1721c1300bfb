/**
 * @file
 * RX-path unit tests: the RX parser's handling of unknown / malformed
 * traffic and its bounded out-of-sequence reassembly, wire-level
 * rejection of truncated or unsupported frames, and the packet
 * generator's MSS segmentation with the paper's 78 B-per-packet wire
 * overhead accounting (40 B TCP/IP + 18 B Ethernet/FCS + 20 B
 * preamble/IFG).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/packet_generator.hh"
#include "core/rx_parser.hh"
#include "harness.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"

namespace f4t::core
{
namespace
{

using net::FourTuple;
using net::Ipv4Address;
using net::MacAddress;
using net::Packet;
using net::SeqNum;
using net::TcpFlags;
using net::TcpHeader;

const Ipv4Address clientIp = Ipv4Address::fromOctets(10, 0, 0, 1);
const Ipv4Address serverIp = Ipv4Address::fromOctets(10, 0, 0, 2);
constexpr std::uint16_t clientPort = 40000;
constexpr std::uint16_t serverPort = 7001;

/** The connection as keyed by the receiving (server) side. */
FourTuple
serverTuple()
{
    return FourTuple{serverIp, serverPort, clientIp, clientPort};
}

/** A client->server packet as the server's RX parser sees it. */
Packet
rxPacket(SeqNum seq, std::uint8_t flags, std::size_t payload_len)
{
    TcpHeader tcp;
    tcp.srcPort = clientPort;
    tcp.dstPort = serverPort;
    tcp.seq = seq;
    tcp.flags = flags;
    tcp.window = 64 * 1024;
    net::PayloadBuffer payload(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
        payload[i] = static_cast<std::uint8_t>(seq + i);
    return Packet::makeTcp(MacAddress{}, MacAddress{}, clientIp,
                           serverIp, tcp, std::move(payload));
}

struct Delivery
{
    tcp::FlowId flow;
    SeqNum seq;
    std::vector<std::uint8_t> bytes;
};

struct RecordingSink : PayloadSink
{
    std::vector<Delivery> deliveries;

    void
    deliverPayload(tcp::FlowId flow, SeqNum seq,
                   std::span<const std::uint8_t> data) override
    {
        deliveries.push_back(
            {flow, seq, std::vector<std::uint8_t>(data.begin(), data.end())});
    }
};

class RxParserTest : public ::testing::Test
{
  protected:
    RxParserTest() : table(64), parser(sim, "rx", table, makeConfig())
    {
        parser.setEventSink(
            [this](const tcp::TcpEvent &ev) { events.push_back(ev); });
        parser.setPayloadSink(&sink);
    }

    static RxParserConfig
    makeConfig()
    {
        RxParserConfig config;
        config.maxFlows = 64;
        config.receiveBufferBytes = 4096;
        config.maxOooChunks = 2;
        return config;
    }

    /** Establish flow 5 with a SYN carrying ISN @p isn. */
    tcp::FlowId
    establish(SeqNum isn)
    {
        table.insert(serverTuple(), 5);
        parser.processPacket(rxPacket(isn, TcpFlags::syn, 0));
        return 5;
    }

    /** One of the parser's registered counters, by short name. */
    double
    counter(const std::string &name)
    {
        return sim.stats().find("rx." + name)->sampleValue();
    }

    sim::Simulation sim;
    RxParser::FlowLookup table;
    RxParser parser;
    RecordingSink sink;
    std::vector<tcp::TcpEvent> events;
};

TEST_F(RxParserTest, NonSynForUnknownTupleIsDroppedWithoutEvent)
{
    parser.processPacket(rxPacket(100, TcpFlags::ack, 32));

    EXPECT_EQ(parser.packetsDropped(), 1u);
    EXPECT_EQ(parser.packetsParsed(), 0u);
    EXPECT_TRUE(events.empty());
    EXPECT_TRUE(sink.deliveries.empty());
}

TEST_F(RxParserTest, SynAckDoesNotCountAsConnectionAttempt)
{
    // Only a *pure* SYN may allocate a flow: a stray SYN|ACK for an
    // unknown tuple must not reach the SYN handler.
    bool handler_called = false;
    parser.setSynHandler([&](const FourTuple &, MacAddress) {
        handler_called = true;
        return tcp::FlowId{1};
    });

    parser.processPacket(
        rxPacket(100, TcpFlags::syn | TcpFlags::ack, 0));

    EXPECT_FALSE(handler_called);
    EXPECT_EQ(parser.packetsDropped(), 1u);
    EXPECT_TRUE(events.empty());
}

TEST_F(RxParserTest, SynHandlerRefusalDropsThePacket)
{
    parser.setSynHandler([](const FourTuple &, MacAddress) {
        return tcp::invalidFlowId; // listen backlog full
    });
    parser.processPacket(rxPacket(100, TcpFlags::syn, 0));
    EXPECT_EQ(parser.packetsDropped(), 1u);
    EXPECT_TRUE(events.empty());

    // An accepted SYN parses and reports the peer's ISN.
    parser.setSynHandler([this](const FourTuple &tuple, MacAddress) {
        table.insert(tuple, 9);
        return tcp::FlowId{9};
    });
    parser.processPacket(rxPacket(100, TcpFlags::syn, 0));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].flow, 9u);
    EXPECT_TRUE((events[0].tcpFlags & TcpFlags::syn) != 0);
    EXPECT_EQ(events[0].peerIsn, 100u);
    EXPECT_EQ(parser.rxStart(9), 101u);
}

TEST_F(RxParserTest, OutOfOrderSegmentsHoldTheBoundaryUntilTheGapFills)
{
    const SeqNum isn = 1000;
    establish(isn);
    events.clear();

    // Second segment arrives first: DMAed immediately (out of place),
    // but the application-visible boundary must not move past the gap.
    parser.processPacket(rxPacket(isn + 9, TcpFlags::ack, 8));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].dataArrived);
    EXPECT_EQ(events[0].rcvUpTo, isn + 1);
    ASSERT_EQ(sink.deliveries.size(), 1u);
    EXPECT_EQ(sink.deliveries[0].seq, isn + 9);
    EXPECT_EQ(sink.deliveries[0].bytes.size(), 8u);

    // The gap fill advances the boundary over both segments at once.
    parser.processPacket(rxPacket(isn + 1, TcpFlags::ack, 8));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].rcvUpTo, isn + 17);
    EXPECT_EQ(parser.packetsDropped(), 0u);
}

TEST_F(RxParserTest, InOrderSegmentWhileAChunkIsHeldStillReassembles)
{
    const SeqNum isn = 4000;
    const tcp::FlowId flow = establish(isn);
    events.clear();

    // Hold [isn+17, isn+25) behind a gap.
    parser.processPacket(rxPacket(isn + 17, TcpFlags::ack, 8));
    EXPECT_EQ(parser.oooChunks(flow), 1u);

    // In order, but a chunk is held: the boundary moves over this
    // segment only, the held chunk stays, and nothing merged.
    parser.processPacket(rxPacket(isn + 1, TcpFlags::ack, 8));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].rcvUpTo, isn + 9);
    EXPECT_EQ(parser.oooChunks(flow), 1u);
    EXPECT_EQ(counter("oooChunksMerged"), 0.0);

    // The next in-order segment touches the held chunk: one merge, and
    // the boundary jumps over both.
    parser.processPacket(rxPacket(isn + 9, TcpFlags::ack, 8));
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[2].rcvUpTo, isn + 25);
    EXPECT_EQ(parser.oooChunks(flow), 0u);
    EXPECT_EQ(counter("oooChunksMerged"), 1.0);
    EXPECT_EQ(counter("payloadBytesAccepted"), 24.0);
    EXPECT_EQ(sink.deliveries.size(), 3u);
}

TEST_F(RxParserTest, CleanInOrderStreamHoldsNoChunk)
{
    const SeqNum isn = 5000;
    const tcp::FlowId flow = establish(isn);
    events.clear();

    for (SeqNum i = 0; i < 8; ++i) {
        parser.processPacket(rxPacket(isn + 1 + 16 * i, TcpFlags::ack, 16));
        ASSERT_EQ(events.size(), i + 1);
        EXPECT_EQ(events.back().rcvUpTo, isn + 1 + 16 * (i + 1));
        EXPECT_EQ(parser.oooChunks(flow), 0u);
    }
    // A retransmission overlapping the boundary delivers only its new
    // tail and still holds nothing.
    parser.processPacket(rxPacket(isn + 121, TcpFlags::ack, 16));
    EXPECT_EQ(events.back().rcvUpTo, isn + 137);
    EXPECT_EQ(parser.oooChunks(flow), 0u);
    EXPECT_EQ(counter("oooChunksMerged"), 0.0);
    EXPECT_EQ(counter("payloadBytesAccepted"), 136.0);
    EXPECT_EQ(sink.deliveries.back().seq, isn + 129);
    EXPECT_EQ(sink.deliveries.back().bytes.size(), 8u);
}

TEST_F(RxParserTest, OooChunkStorageBoundDropsUntilRetransmissionHeals)
{
    const SeqNum isn = 2000;
    establish(isn);
    events.clear();

    // maxOooChunks = 2: two disjoint out-of-sequence chunks fit, the
    // third is dropped (hardware chunk store exhausted).
    parser.processPacket(rxPacket(isn + 11, TcpFlags::ack, 4));
    parser.processPacket(rxPacket(isn + 21, TcpFlags::ack, 4));
    EXPECT_EQ(parser.packetsDropped(), 0u);
    parser.processPacket(rxPacket(isn + 31, TcpFlags::ack, 4));
    EXPECT_EQ(parser.packetsDropped(), 1u);

    // A retransmission from the boundary is always accepted, merges
    // the stored chunks, and the boundary jumps over everything.
    parser.processPacket(rxPacket(isn + 1, TcpFlags::ack, 24));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().rcvUpTo, isn + 25);
}

TEST_F(RxParserTest, FinIsReportedOnceAllPrecedingDataIsReassembled)
{
    const SeqNum isn = 3000;
    establish(isn);
    events.clear();

    // FIN arrives while [isn+1, isn+9) is still missing: recorded but
    // not yet reported to the event pipeline.
    parser.processPacket(rxPacket(isn + 9, TcpFlags::fin | TcpFlags::ack, 0));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE((events[0].tcpFlags & TcpFlags::fin) == 0);

    // Once the data gap fills, the FIN consumes its sequence number.
    parser.processPacket(rxPacket(isn + 1, TcpFlags::ack, 8));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_TRUE((events[1].tcpFlags & TcpFlags::fin) != 0);
    EXPECT_EQ(events[1].rcvUpTo, isn + 10);
}

TEST(PacketParsing, TruncatedFramesAreRejectedNotMisparsed)
{
    Packet pkt = rxPacket(100, TcpFlags::ack, 100);
    std::vector<std::uint8_t> wire = pkt.serialize();
    ASSERT_TRUE(Packet::parseWire(wire).has_value());

    // Cut the frame inside every header and inside the payload: the
    // parser must reject each truncation instead of reading garbage.
    for (std::size_t len : {std::size_t{0}, std::size_t{10},  // mid-Ethernet
                            std::size_t{20},                  // mid-IPv4
                            std::size_t{40},                  // mid-TCP
                            wire.size() - 1}) {               // mid-payload
        std::span<const std::uint8_t> cut(wire.data(), len);
        EXPECT_FALSE(Packet::parseWire(cut).has_value())
            << "truncation to " << len << " bytes parsed";
    }
}

TEST(PacketParsing, UnsupportedProtocolsAreRejected)
{
    Packet pkt = rxPacket(100, TcpFlags::ack, 100);
    std::vector<std::uint8_t> wire = pkt.serialize();

    // Unknown ethertype (IPv6).
    std::vector<std::uint8_t> bad_ether = wire;
    bad_ether[12] = 0x86;
    bad_ether[13] = 0xdd;
    EXPECT_FALSE(Packet::parseWire(bad_ether).has_value());

    // Unsupported IP protocol (UDP) at offset 14 + 9.
    std::vector<std::uint8_t> bad_proto = wire;
    bad_proto[23] = 17;
    EXPECT_FALSE(Packet::parseWire(bad_proto).has_value());

    // IP total length claiming more bytes than the frame carries.
    std::vector<std::uint8_t> bad_len = wire;
    bad_len[16] = 0xff;
    bad_len[17] = 0xff;
    EXPECT_FALSE(Packet::parseWire(bad_len).has_value());
}

class PacketGeneratorTest : public ::testing::Test
{
  protected:
    PacketGeneratorTest()
        : domain("mac", 322.265625e6, sim.queue()),
          generator(sim, "pktgen", domain)
    {
        generator.setAddressLookup([](tcp::FlowId) {
            return FlowAddress{FourTuple{serverIp, serverPort, clientIp,
                                         clientPort},
                               MacAddress{}, MacAddress{}};
        });
        generator.setTransmit([this](Packet &&pkt) {
            // The batched TX path hands segments over early with the
            // modeled emission tick stamped in txReady; record the
            // effective emission time so the pacing assertions hold in
            // both modes.
            sendTimes.push_back(
                std::max(sim.now(), static_cast<sim::Tick>(pkt.txReady)));
            sent.push_back(std::move(pkt));
        });
    }

    static constexpr std::uint16_t mss = 1460; ///< the paper's MSS

    sim::Simulation sim;
    sim::ClockDomain domain;
    PacketGenerator generator;
    std::vector<Packet> sent;
    std::vector<sim::Tick> sendTimes;
};

/** Transmit payload whose bytes are a pure function of the wire seq. */
struct PatternSource : PayloadSource
{
    sim::Tick
    fetchPayload(tcp::FlowId, SeqNum seq,
                 std::span<std::uint8_t> out) override
    {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = static_cast<std::uint8_t>((seq + i) * 7);
        return 0;
    }
};

TEST_F(PacketGeneratorTest, SplitsAtMssAndChargesThePaperWireOverhead)
{
    PatternSource source;
    generator.setPayloadSource(&source);

    tcp::SegmentRequest req;
    req.flow = 1;
    req.seq = 5000;
    req.length = 2 * mss + 80;
    req.ack = 777;
    req.window = 32 * 1024;
    req.fin = true;
    generator.requestSegments(req);
    sim.run();

    ASSERT_EQ(sent.size(), 3u);
    EXPECT_EQ(generator.segmentsGenerated(), 3u);
    EXPECT_EQ(generator.retransmissions(), 0u);

    SeqNum seq = req.seq;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        const Packet &pkt = sent[i];
        std::size_t expect_len = i < 2 ? mss : 80;
        ASSERT_EQ(pkt.payload.size(), expect_len);
        EXPECT_EQ(pkt.tcp().seq, seq);
        EXPECT_EQ(pkt.tcp().ack, req.ack);
        EXPECT_TRUE(pkt.tcp().hasFlag(TcpFlags::ack));
        // FIN rides only on the last segment of the request.
        EXPECT_EQ(pkt.tcp().hasFlag(TcpFlags::fin), i == 2);

        // The paper charges 78 B per packet on the wire: 40 B TCP/IP
        // + 18 B Ethernet/FCS + 20 B preamble and inter-frame gap.
        EXPECT_EQ(pkt.wireBytes(), expect_len + 78);

        // Payload was fetched from the host buffer at the right seq.
        for (std::size_t b = 0; b < 4; ++b) {
            ASSERT_EQ(pkt.payload[b],
                      static_cast<std::uint8_t>((seq + b) * 7));
        }
        seq += static_cast<SeqNum>(expect_len);
    }
}

TEST_F(PacketGeneratorTest, PacesOneSegmentPerMacCycle)
{
    generator.requestSegments(
        tcp::SegmentRequest{1, 0, 4 * mss, 0, 0, false, false});
    sim.run();

    ASSERT_EQ(sendTimes.size(), 4u);
    for (std::size_t i = 0; i < sendTimes.size(); ++i)
        EXPECT_EQ(sendTimes[i], i * domain.period());
}

TEST_F(PacketGeneratorTest, RetransmittedSegmentsAreCountedAsSuch)
{
    tcp::SegmentRequest req;
    req.flow = 1;
    req.seq = 0;
    req.length = 2 * mss;
    req.retransmission = true;
    generator.requestSegments(req);
    sim.run();

    EXPECT_EQ(generator.segmentsGenerated(), 2u);
    EXPECT_EQ(generator.retransmissions(), 2u);
}

TEST_F(PacketGeneratorTest, ControlPacketsPadToTheMinimumEthernetFrame)
{
    tcp::ControlRequest syn;
    syn.flow = 1;
    syn.flags = TcpFlags::syn;
    syn.seq = 42;
    syn.mssOption = mss;
    generator.requestControl(syn);

    tcp::ControlRequest ack;
    ack.flow = 1;
    ack.flags = TcpFlags::ack;
    generator.requestControl(ack);
    sim.run();

    ASSERT_EQ(sent.size(), 2u);
    EXPECT_TRUE(sent[0].tcp().hasFlag(TcpFlags::syn));
    EXPECT_EQ(sent[0].tcp().mssOption, mss);
    for (const Packet &pkt : sent) {
        EXPECT_TRUE(pkt.payload.empty());
        // 60 B minimum frame + 4 B FCS + 20 B preamble/IFG.
        EXPECT_EQ(pkt.wireBytes(), 84u);
    }
}

} // namespace
} // namespace f4t::core
