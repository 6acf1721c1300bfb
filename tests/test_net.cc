/**
 * @file
 * Unit and property tests for the networking substrate: byte-accurate
 * header round trips, checksums, sequence arithmetic, the cuckoo hash
 * table, interval sets, byte rings, the link model's timing and fault
 * injection, and the stream oracle's ledger.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/byte_ring.hh"
#include "net/checksum.hh"
#include "net/cuckoo_hash.hh"
#include "net/four_tuple.hh"
#include "net/interval_set.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "net/seq.hh"
#include "net/stream_oracle.hh"
#include "harness.hh"
#include "sim/simulation.hh"

namespace f4t::net
{
namespace
{

// ---------------------------------------------------------------------
// sequence arithmetic
// ---------------------------------------------------------------------

TEST(SeqArith, WrapAroundComparisons)
{
    SeqNum high = 0xffff'fff0u;
    SeqNum low = 0x10u; // 0x20 ahead of high in sequence space

    EXPECT_TRUE(seqLt(high, low));
    EXPECT_TRUE(seqGt(low, high));
    EXPECT_TRUE(seqLeq(high, high));
    EXPECT_TRUE(seqGeq(low, low));
    EXPECT_EQ(seqMax(high, low), low);
    EXPECT_EQ(seqMin(high, low), high);
    EXPECT_EQ(seqDiff(low, high), 0x20);
    EXPECT_EQ(seqDiff(high, low), -0x20);
}

class SeqOrderProperty : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(SeqOrderProperty, AdditionPreservesOrdering)
{
    SeqNum base = GetParam();
    for (std::uint32_t step : {1u, 100u, 1460u, 1u << 20, 1u << 30}) {
        SeqNum next = base + step;
        EXPECT_TRUE(seqLt(base, next)) << base << " + " << step;
        EXPECT_EQ(seqDiff(next, base), static_cast<std::int32_t>(step));
    }
}

INSTANTIATE_TEST_SUITE_P(WrapPoints, SeqOrderProperty,
                         ::testing::Values(0u, 1u, 0x7fff'ffffu,
                                           0x8000'0000u, 0xffff'0000u,
                                           0xffff'ffffu));

// ---------------------------------------------------------------------
// checksum
// ---------------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector)
{
    // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
    std::vector<std::uint8_t> bytes{0x00, 0x01, 0xf2, 0x03,
                                    0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internetChecksum(bytes), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero)
{
    std::vector<std::uint8_t> odd{0xab};
    ChecksumAccumulator acc;
    acc.addWord(0xab00);
    EXPECT_EQ(internetChecksum(odd), acc.finish());
}

TEST(Checksum, ValidatesToZeroWhenIncluded)
{
    std::vector<std::uint8_t> data{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
    std::uint16_t csum = internetChecksum(data);
    data.push_back(static_cast<std::uint8_t>(csum >> 8));
    data.push_back(static_cast<std::uint8_t>(csum));
    // Sum over data + checksum folds to 0xffff -> finish() == 0.
    EXPECT_EQ(internetChecksum(data), 0);
}

// ---------------------------------------------------------------------
// headers
// ---------------------------------------------------------------------

TEST(Headers, EthernetRoundTrip)
{
    EthernetHeader header;
    header.src = MacAddress{{1, 2, 3, 4, 5, 6}};
    header.dst = MacAddress{{7, 8, 9, 10, 11, 12}};
    header.etherType = EthernetHeader::typeArp;

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ASSERT_EQ(raw.size(), EthernetHeader::wireSize);

    ByteReader reader(raw);
    EXPECT_EQ(EthernetHeader::parse(reader), header);
}

TEST(Headers, ArpRoundTrip)
{
    ArpMessage msg;
    msg.opcode = ArpMessage::opReply;
    msg.senderMac = MacAddress{{1, 2, 3, 4, 5, 6}};
    msg.senderIp = Ipv4Address::fromOctets(10, 0, 0, 1);
    msg.targetMac = MacAddress{{9, 9, 9, 9, 9, 9}};
    msg.targetIp = Ipv4Address::fromOctets(10, 0, 0, 2);

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    msg.serialize(writer);
    ASSERT_EQ(raw.size(), ArpMessage::wireSize);

    ByteReader reader(raw);
    EXPECT_EQ(ArpMessage::parse(reader), msg);
}

TEST(Headers, Ipv4ChecksumSelfConsistent)
{
    Ipv4Header header;
    header.src = Ipv4Address::fromOctets(192, 168, 1, 10);
    header.dst = Ipv4Address::fromOctets(192, 168, 1, 20);
    header.totalLength = 1500;
    header.identification = 0x4242;

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ASSERT_EQ(raw.size(), Ipv4Header::wireSize);

    // A serialized IPv4 header checksums to zero.
    EXPECT_EQ(internetChecksum(raw), 0);

    ByteReader reader(raw);
    Ipv4Header parsed = Ipv4Header::parse(reader);
    EXPECT_EQ(parsed.src, header.src);
    EXPECT_EQ(parsed.dst, header.dst);
    EXPECT_EQ(parsed.totalLength, header.totalLength);
    EXPECT_EQ(parsed.headerChecksum, header.computeChecksum());
}

TEST(Headers, TcpRoundTripWithMssOption)
{
    TcpHeader header;
    header.srcPort = 40000;
    header.dstPort = 80;
    header.seq = 0xdeadbeef;
    header.ack = 0xfeedface;
    header.flags = TcpFlags::syn | TcpFlags::ack;
    header.window = 512 * 1024;
    header.mssOption = 1460;

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ASSERT_EQ(raw.size(), header.wireSize());
    ASSERT_EQ(header.wireSize(), 24u);

    ByteReader reader(raw);
    TcpHeader parsed = TcpHeader::parse(reader);
    EXPECT_EQ(parsed.srcPort, header.srcPort);
    EXPECT_EQ(parsed.seq, header.seq);
    EXPECT_EQ(parsed.ack, header.ack);
    EXPECT_EQ(parsed.flags, header.flags);
    EXPECT_EQ(parsed.mssOption, 1460);
    // Window scaling floors to 64-byte granularity.
    EXPECT_EQ(parsed.window, 512u * 1024u);
}

TEST(Headers, WindowScalingGranularity)
{
    TcpHeader header;
    header.window = 1000; // not a multiple of 64
    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ByteReader reader(raw);
    TcpHeader parsed = TcpHeader::parse(reader);
    EXPECT_EQ(parsed.window, (1000u >> 6) << 6);
    EXPECT_LE(parsed.window, 1000u);
}

TEST(Packet, TcpWireRoundTripWithPayload)
{
    TcpHeader tcp;
    tcp.srcPort = 1234;
    tcp.dstPort = 5678;
    tcp.seq = 42;
    tcp.ack = 77;
    tcp.flags = TcpFlags::ack | TcpFlags::psh;
    tcp.window = 8192;

    std::vector<std::uint8_t> payload(200);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);

    Packet pkt = Packet::makeTcp(MacAddress{{1, 1, 1, 1, 1, 1}},
                                 MacAddress{{2, 2, 2, 2, 2, 2}},
                                 Ipv4Address::fromOctets(10, 0, 0, 1),
                                 Ipv4Address::fromOctets(10, 0, 0, 2), tcp,
                                 payload);

    auto wire = pkt.serialize();
    auto parsed = Packet::parseWire(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->isTcp());
    EXPECT_EQ(parsed->tcp().seq, 42u);
    EXPECT_EQ(parsed->tcp().ack, 77u);
    EXPECT_EQ(parsed->payload, payload);

    // TCP checksum validates: recompute over the parsed packet.
    std::uint16_t expect = parsed->tcp().computeChecksum(
        parsed->ip->src, parsed->ip->dst, parsed->payload);
    EXPECT_EQ(parsed->tcp().checksum, expect);
}

TEST(Packet, WireBytesMatchPaperOverheadAccounting)
{
    TcpHeader tcp;
    Packet pkt = Packet::makeTcp(MacAddress{}, MacAddress{},
                                 Ipv4Address{}, Ipv4Address{}, tcp,
                                 std::vector<std::uint8_t>(128));
    // 128 B payload + 78 B overhead (40 TCP/IP + 18 eth+FCS + 20
    // preamble/IFG): the paper's goodput arithmetic (Section 5.1).
    EXPECT_EQ(pkt.wireBytes(), 128u + 78u);
}

TEST(Packet, ShortFramesArePadded)
{
    TcpHeader tcp;
    Packet pkt = Packet::makeTcp(MacAddress{}, MacAddress{},
                                 Ipv4Address{}, Ipv4Address{}, tcp);
    EXPECT_EQ(pkt.frameBytes(), 60u);
    EXPECT_EQ(pkt.serialize().size(), 60u);
}

TEST(Packet, IcmpEchoRoundTrip)
{
    Packet pkt;
    pkt.eth.etherType = EthernetHeader::typeIpv4;
    Ipv4Header ip;
    ip.src = Ipv4Address::fromOctets(10, 0, 0, 1);
    ip.dst = Ipv4Address::fromOctets(10, 0, 0, 2);
    ip.protocol = Ipv4Header::protoIcmp;
    pkt.ip = ip;
    IcmpMessage icmp;
    icmp.type = IcmpMessage::typeEchoRequest;
    icmp.identifier = 7;
    icmp.sequence = 3;
    icmp.payload = {1, 2, 3, 4};
    pkt.l4 = icmp;

    auto wire = pkt.serialize();
    auto parsed = Packet::parseWire(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->isIcmp());
    EXPECT_EQ(parsed->icmp().identifier, 7);
    EXPECT_EQ(parsed->icmp().payload, icmp.payload);
}

TEST(Packet, MalformedBytesRejected)
{
    std::vector<std::uint8_t> junk(10, 0xff);
    EXPECT_FALSE(Packet::parseWire(junk).has_value());

    std::vector<std::uint8_t> truncated(20, 0);
    truncated[12] = 0x08; // IPv4 ethertype
    truncated[13] = 0x00;
    EXPECT_FALSE(Packet::parseWire(truncated).has_value());
}

// ---------------------------------------------------------------------
// cuckoo hash
// ---------------------------------------------------------------------

FourTuple
tupleFor(std::uint32_t i)
{
    return FourTuple{Ipv4Address{0x0a000001},
                     static_cast<std::uint16_t>(1000 + (i % 60000)),
                     Ipv4Address{0x0a000002 + i / 60000},
                     static_cast<std::uint16_t>(2000 + (i % 50000))};
}

TEST(CuckooHash, InsertFindErase)
{
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(64);
    for (std::uint32_t i = 0; i < 100; ++i)
        ASSERT_TRUE(table.insert(tupleFor(i), i));
    EXPECT_EQ(table.size(), 100u);

    for (std::uint32_t i = 0; i < 100; ++i) {
        auto found = table.find(tupleFor(i));
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(*found, i);
    }

    EXPECT_TRUE(table.erase(tupleFor(50)));
    EXPECT_FALSE(table.find(tupleFor(50)).has_value());
    EXPECT_FALSE(table.erase(tupleFor(50)));
    EXPECT_EQ(table.size(), 99u);
}

TEST(CuckooHash, UpdateExistingKey)
{
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(16);
    ASSERT_TRUE(table.insert(tupleFor(1), 10));
    ASSERT_TRUE(table.insert(tupleFor(1), 20));
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(*table.find(tupleFor(1)), 20u);
}

TEST(CuckooHash, HighLoadFactorViaKicks)
{
    // 2 ways x 4 slots x 64 buckets = 512 capacity; fill to ~85 %.
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(64);
    std::uint32_t inserted = 0;
    for (std::uint32_t i = 0; i < 440; ++i) {
        if (table.insert(tupleFor(i), i))
            ++inserted;
    }
    EXPECT_GE(inserted, 430u);
    // Everything that reported success must be findable.
    std::uint32_t found = 0;
    for (std::uint32_t i = 0; i < 440; ++i) {
        if (table.find(tupleFor(i)).has_value())
            ++found;
    }
    EXPECT_EQ(found, inserted);
}

TEST(CuckooHash, FailedInsertLosesNothing)
{
    // Tiny table forced to overflow: residents must all survive.
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash, 1> table(2, 2);
    std::vector<std::uint32_t> resident;
    for (std::uint32_t i = 0; i < 32; ++i) {
        if (table.insert(tupleFor(i), i))
            resident.push_back(i);
    }
    EXPECT_LT(resident.size(), 32u); // some inserts must have failed
    for (std::uint32_t i : resident) {
        ASSERT_TRUE(table.find(tupleFor(i)).has_value())
            << "resident key " << i << " lost by a failed insert";
    }
    EXPECT_EQ(table.size(), resident.size());
}

TEST(CuckooHash, SupportsFullFlowScale)
{
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(65536);
    for (std::uint32_t i = 0; i < 65536; ++i)
        ASSERT_TRUE(table.insert(tupleFor(i), i)) << i;
    EXPECT_EQ(table.size(), 65536u);
    EXPECT_EQ(*table.find(tupleFor(65535)), 65535u);
}

TEST(CuckooHash, ChurnAtHighLoadFactor64k)
{
    // 2 ways x 8192 buckets x 4 slots = 65536 slots (+8 stash). Fill
    // to ~90 % occupancy, then churn rotating quarters of the keys
    // through erase/re-insert. Inserting at this load factor exercises
    // the kick path constantly; the table must keep placing every key
    // (an insert that kicks from one way while the other still has a
    // free slot walks needless cuckoo chains and starts failing well
    // below nominal capacity).
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(8192);
    const std::uint32_t target = 59000;
    for (std::uint32_t i = 0; i < target; ++i) {
        ASSERT_TRUE(table.insert(tupleFor(i), i))
            << "insert " << i << " failed at occupancy " << table.size()
            << "/65536";
    }
    ASSERT_EQ(table.size(), target);

    for (std::uint32_t round = 0; round < 3; ++round) {
        for (std::uint32_t i = round; i < target; i += 4)
            ASSERT_TRUE(table.erase(tupleFor(i))) << i;
        for (std::uint32_t i = round; i < target; i += 4) {
            ASSERT_TRUE(table.insert(tupleFor(i), i + round))
                << "re-insert " << i << " failed in round " << round;
        }
        ASSERT_EQ(table.size(), target);
    }

    // Every key resolves to its last-written value. Keys with residue
    // 0..2 were rewritten in the matching round; residue 3 never moved.
    for (std::uint32_t i = 0; i < target; ++i) {
        auto found = table.find(tupleFor(i));
        ASSERT_TRUE(found.has_value()) << i;
        std::uint32_t residue = i % 4;
        EXPECT_EQ(*found, residue < 3 ? i + residue : i) << i;
    }
}

// ---------------------------------------------------------------------
// interval set
// ---------------------------------------------------------------------

TEST(IntervalSet, MergesAdjacentAndOverlapping)
{
    IntervalSet set;
    set.insert(10, 20);
    set.insert(30, 40);
    EXPECT_EQ(set.chunkCount(), 2u);

    set.insert(20, 30); // bridges the two
    EXPECT_EQ(set.chunkCount(), 1u);
    EXPECT_TRUE(set.contains(10, 40));
    EXPECT_FALSE(set.contains(9, 11));
    EXPECT_EQ(set.contiguousEnd(10), 40u);
    EXPECT_EQ(set.contiguousEnd(5), 5u);
}

TEST(IntervalSet, EraseBelowTruncates)
{
    IntervalSet set;
    set.insert(0, 100);
    set.insert(200, 300);
    set.eraseBelow(50);
    EXPECT_FALSE(set.contains(0, 10));
    EXPECT_TRUE(set.contains(50, 100));
    EXPECT_TRUE(set.contains(200, 300));
    set.eraseBelow(250);
    EXPECT_TRUE(set.contains(250, 300));
    EXPECT_FALSE(set.contains(200, 249));
}

TEST(IntervalSet, RandomizedAgainstBitmapOracle)
{
    test::ScopedRng rng(5);
    constexpr std::size_t space = 2048;
    for (int round = 0; round < 20; ++round) {
        IntervalSet set;
        std::vector<bool> oracle(space, false);
        for (int op = 0; op < 200; ++op) {
            std::uint64_t start = rng.below(space - 1);
            std::uint64_t end = start + 1 + rng.below(64);
            if (end > space)
                end = space;
            set.insert(start, end);
            for (std::uint64_t i = start; i < end; ++i)
                oracle[i] = true;
        }
        // contiguousEnd from 0 must match the oracle's first gap.
        std::uint64_t expect = 0;
        while (expect < space && oracle[expect])
            ++expect;
        EXPECT_EQ(set.contiguousEnd(0), expect);
        // Spot-check membership.
        for (int probe = 0; probe < 100; ++probe) {
            std::uint64_t p = rng.below(space);
            EXPECT_EQ(set.contains(p, p + 1), static_cast<bool>(oracle[p]));
        }
    }
}

// ---------------------------------------------------------------------
// byte ring
// ---------------------------------------------------------------------

TEST(ByteRing, AppendCopyOutRelease)
{
    ByteRing ring(16);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    EXPECT_EQ(ring.append(data), 5u);
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.freeSpace(), 11u);

    std::vector<std::uint8_t> out(5);
    ring.copyOut(0, out);
    EXPECT_EQ(out, data);

    ring.release(3);
    EXPECT_EQ(ring.base(), 3u);
    std::vector<std::uint8_t> tail(2);
    ring.copyOut(3, tail);
    EXPECT_EQ(tail[0], 4);
    EXPECT_EQ(tail[1], 5);
}

TEST(ByteRing, WrapsAroundCapacity)
{
    ByteRing ring(8);
    std::vector<std::uint8_t> first{1, 2, 3, 4, 5, 6};
    ring.append(first);
    ring.release(6);
    std::vector<std::uint8_t> second{7, 8, 9, 10, 11};
    EXPECT_EQ(ring.append(second), 5u); // crosses the wrap point
    std::vector<std::uint8_t> out(5);
    ring.copyOut(6, out);
    EXPECT_EQ(out, second);
}

TEST(ByteRing, AppendTruncatesAtCapacity)
{
    ByteRing ring(4);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6};
    EXPECT_EQ(ring.append(data), 4u);
    EXPECT_EQ(ring.freeSpace(), 0u);
    EXPECT_EQ(ring.append(data), 0u);
}

TEST(ByteRing, OutOfOrderWriteAtExtendsEnd)
{
    ByteRing ring(32);
    std::vector<std::uint8_t> chunk{9, 9, 9};
    ring.writeAt(10, chunk); // hole at [0, 10)
    EXPECT_EQ(ring.end(), 13u);
    std::vector<std::uint8_t> out(3);
    ring.copyOut(10, out);
    EXPECT_EQ(out, chunk);
}

// ---------------------------------------------------------------------
// link model
// ---------------------------------------------------------------------

struct CollectingSink : PacketSink
{
    std::vector<Packet> packets;
    std::vector<sim::Tick> arrivals;
    sim::Simulation *sim = nullptr;

    void
    receivePacket(Packet &&pkt) override
    {
        packets.push_back(std::move(pkt));
        if (sim)
            arrivals.push_back(sim->now());
    }
};

Packet
dataPacket(std::size_t payload_bytes)
{
    TcpHeader tcp;
    return Packet::makeTcp(MacAddress{}, MacAddress{}, Ipv4Address{},
                           Ipv4Address{},
                           tcp, std::vector<std::uint8_t>(payload_bytes));
}

/** Caller-located tick comparison with a small tolerance. */
void
expectTickNear(sim::Tick actual, sim::Tick expected, test::SourceLoc loc)
{
    sim::Tick delta =
        actual > expected ? actual - expected : expected - actual;
    if (delta > 10) {
        ADD_FAILURE_AT(loc.file, loc.line)
            << "tick " << actual << " not within 10 of " << expected;
    }
}

TEST(LinkModel, SerializationTimeMatchesBandwidth)
{
    sim::Simulation sim;
    Link link(sim, "link", 100e9, sim::nanosecondsToTicks(500));
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    // 1460 B payload -> 1538 wire bytes -> 123.04 ns at 100 Gbps,
    // plus 500 ns propagation.
    link.aToB().send(dataPacket(1460));
    sim.run();

    ASSERT_EQ(b.packets.size(), 1u);
    sim::Tick expect = sim::secondsToTicks(1538.0 * 8 / 100e9) +
                       sim::nanosecondsToTicks(500);
    expectTickNear(b.arrivals[0], expect, F4T_TEST_HERE);
}

/** Restore the process-wide batching switch on scope exit. */
struct BatchingMode
{
    explicit BatchingMode(bool enabled)
        : saved_(datapathBatchingEnabled())
    {
        setDatapathBatching(enabled);
    }
    ~BatchingMode() { setDatapathBatching(saved_); }
    bool saved_;
};

TEST(LinkModel, BackToBackPacketsQueueBehindEachOther)
{
    // Per-packet reference mode: every delivery is its own host event
    // at the modeled arrival tick, so the sink observes serialization
    // spacing directly.
    BatchingMode reference(false);
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0);
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    for (int i = 0; i < 10; ++i)
        link.aToB().send(dataPacket(1460));
    sim.run();

    ASSERT_EQ(b.packets.size(), 10u);
    sim::Tick per_packet = sim::secondsToTicks(1538.0 * 8 / 100e9);
    for (std::size_t i = 1; i < b.arrivals.size(); ++i) {
        expectTickNear(b.arrivals[i] - b.arrivals[i - 1], per_packet,
                       F4T_TEST_HERE);
    }
}

TEST(LinkModel, BatchedDeliveryIsCausalOrderedAndBounded)
{
    // Batched mode: a wire train reaches the sink in fewer host
    // events, but every packet is delivered in order, never before its
    // modeled arrival, and never more than the burst-hold window after
    // it.
    BatchingMode batched(true);
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0);
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    std::vector<sim::Tick> modeled;
    for (int i = 0; i < 10; ++i)
        modeled.push_back(link.aToB().send(dataPacket(1460)));
    sim.run();

    ASSERT_EQ(b.packets.size(), 10u);
    for (std::size_t i = 0; i < modeled.size(); ++i) {
        EXPECT_GE(b.arrivals[i], modeled[i]);
        EXPECT_LE(b.arrivals[i],
                  modeled[i] + LinkDirection::maxBurstHold);
        if (i > 0) {
            EXPECT_GE(b.arrivals[i], b.arrivals[i - 1]);
        }
    }
    // A 123 ns-spaced train must not cost one event per packet.
    EXPECT_LT(sim.queue().eventsProcessed(), 10u);
}

TEST(LinkModel, FullDuplexDirectionsAreIndependent)
{
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0);
    CollectingSink a, b;
    a.sim = &sim;
    b.sim = &sim;
    link.connect(a, b);

    link.aToB().send(dataPacket(1460));
    link.bToA().send(dataPacket(1460));
    sim.run();

    ASSERT_EQ(a.packets.size(), 1u);
    ASSERT_EQ(b.packets.size(), 1u);
    // Identical timing: neither direction queued behind the other.
    EXPECT_EQ(a.arrivals[0], b.arrivals[0]);
}

TEST(LinkModel, DropProbabilityRoughlyHolds)
{
    sim::Simulation sim;
    FaultModel faults;
    faults.dropProbability = 0.1;
    faults.seed = 3;
    Link link(sim, "link", 100e9, 0, faults);
    CollectingSink a, b;
    link.connect(a, b);

    constexpr int n = 5000;
    for (int i = 0; i < n; ++i)
        link.aToB().send(dataPacket(100));
    sim.run();

    double delivered = static_cast<double>(b.packets.size());
    EXPECT_NEAR(delivered / n, 0.9, 0.02);
    EXPECT_EQ(link.aToB().packetsDropped() + b.packets.size(),
              static_cast<std::uint64_t>(n));
}

TEST(LinkModel, DuplicationDeliversExtraCopies)
{
    sim::Simulation sim;
    FaultModel faults;
    faults.duplicateProbability = 0.2;
    faults.seed = 11;
    Link link(sim, "link", 100e9, 0, faults);
    CollectingSink a, b;
    link.connect(a, b);

    constexpr int n = 2000;
    for (int i = 0; i < n; ++i)
        link.aToB().send(dataPacket(64));
    sim.run();

    EXPECT_GT(b.packets.size(), static_cast<std::size_t>(n * 1.15));
    EXPECT_LT(b.packets.size(), static_cast<std::size_t>(n * 1.25));
}

// ---------------------------------------------------------------------
// stream oracle
// ---------------------------------------------------------------------

/**
 * StreamOracle's contract applied one byte at a time: every delivered
 * byte pops the oldest in-flight byte and is compared with it, and the
 * first fault of a stream is its only violation. The span-moving oracle
 * must match it report for report and digest for digest.
 */
class ByteLedger
{
  public:
    void
    onSend(std::uint64_t id, std::span<const std::uint8_t> data)
    {
        Stream &s = streams_[id];
        for (std::uint8_t byte : data) {
            s.sentDigest = (s.sentDigest ^ byte) * fnvPrime;
            s.inFlight.push_back(byte);
        }
        s.sent += data.size();
    }

    void
    onDeliver(std::uint64_t id, std::span<const std::uint8_t> data)
    {
        Stream &s = streams_[id];
        for (std::uint8_t byte : data) {
            s.deliveredDigest = (s.deliveredDigest ^ byte) * fnvPrime;
            if (s.inFlight.empty()) {
                if (!s.corrupt) {
                    s.corrupt = true;
                    violation(format("stream %" PRIu64 ": delivered byte "
                                     "at offset %" PRIu64 " beyond the %"
                                     PRIu64 " bytes ever sent",
                                     id, s.delivered, s.sent));
                }
            } else {
                std::uint8_t expected = s.inFlight.front();
                s.inFlight.pop_front();
                if (byte != expected && !s.corrupt) {
                    s.corrupt = true;
                    violation(format("stream %" PRIu64 ": corrupt byte at "
                                     "offset %" PRIu64 ": expected 0x%02x, "
                                     "got 0x%02x",
                                     id, s.delivered, expected, byte));
                }
            }
            ++s.delivered;
        }
    }

    void
    expectFullyDelivered(std::uint64_t id)
    {
        auto it = streams_.find(id);
        if (it == streams_.end())
            return;
        const Stream &s = it->second;
        if (s.delivered != s.sent) {
            violation(format("stream %" PRIu64 ": only %" PRIu64 " of %"
                             PRIu64 " sent bytes delivered",
                             id, s.delivered, s.sent));
        } else if (s.deliveredDigest != s.sentDigest && !s.corrupt) {
            violation(format("stream %" PRIu64 ": digests diverge at "
                             "equal length %" PRIu64, id, s.sent));
        }
    }

    std::uint64_t
    deliveredBytes(std::uint64_t id) const
    {
        auto it = streams_.find(id);
        return it == streams_.end() ? 0 : it->second.delivered;
    }

    std::uint64_t
    ledgerDigest() const
    {
        std::uint64_t digest = fnvOffset;
        auto mix = [&digest](std::uint64_t value) {
            for (int i = 0; i < 8; ++i) {
                digest = (digest ^ (value & 0xff)) * fnvPrime;
                value >>= 8;
            }
        };
        for (const auto &[id, s] : streams_) {
            mix(id);
            mix(s.delivered);
            mix(s.deliveredDigest);
        }
        return digest;
    }

    std::string
    report() const
    {
        if (violations_.empty())
            return "stream oracle: all checks passed";
        std::string out = format("stream oracle: %zu violation(s)",
                                 violations_.size() + suppressed_);
        for (const std::string &v : violations_)
            out += "\n  - " + v;
        if (suppressed_ > 0) {
            out += format("\n  (… %zu further violations suppressed)",
                          suppressed_);
        }
        return out;
    }

  private:
    struct Stream
    {
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
        std::uint64_t sentDigest = fnvOffset;
        std::uint64_t deliveredDigest = fnvOffset;
        std::deque<std::uint8_t> inFlight;
        bool corrupt = false;
    };

    static constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

    template <class... Args>
    static std::string
    format(const char *fmt, Args... args)
    {
        char buf[512];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        return buf;
    }

    void
    violation(std::string message)
    {
        if (violations_.size() >= 16)
            ++suppressed_;
        else
            violations_.push_back(std::move(message));
    }

    std::map<std::uint64_t, Stream> streams_;
    std::vector<std::string> violations_;
    std::size_t suppressed_ = 0;
};

TEST(StreamOracle, MatchesTheByteLedgerOnRandomSplits)
{
    // Sends and deliveries of random length on interleaved streams,
    // with the odd corrupted byte and the odd delivery past the sent
    // bytes; 24 streams overflow the 16 reported violations. Half the
    // streams drain before the end-of-run check.
    test::ScopedRng rng(20);
    constexpr std::uint64_t streams = 24;
    for (int round = 0; round < 40; ++round) {
        StreamOracle oracle;
        ByteLedger ledger;
        std::vector<std::vector<std::uint8_t>> sent(streams);
        std::vector<std::size_t> delivered(streams, 0);
        for (int op = 0; op < 600; ++op) {
            std::uint64_t id = rng.below(streams);
            std::vector<std::uint8_t> bytes;
            if (rng.chance(0.5)) {
                bytes.resize(rng.below(300));
                for (std::uint8_t &b : bytes)
                    b = static_cast<std::uint8_t>(rng.next());
                sent[id].insert(sent[id].end(), bytes.begin(), bytes.end());
                oracle.onSend(id, bytes);
                ledger.onSend(id, bytes);
                continue;
            }
            std::size_t in_flight = sent[id].size() - delivered[id];
            std::size_t n = rng.below(in_flight + 1);
            if (rng.chance(0.01))
                n += 1 + rng.below(40); // past everything ever sent
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t at = delivered[id] + i;
                bytes.push_back(at < sent[id].size()
                                    ? sent[id][at]
                                    : static_cast<std::uint8_t>(rng.next()));
            }
            if (n > 0 && rng.chance(0.01))
                bytes[rng.below(n)] ^= 1 + rng.below(255);
            delivered[id] = std::min(delivered[id] + n, sent[id].size());
            oracle.onDeliver(id, bytes);
            ledger.onDeliver(id, bytes);
        }
        for (std::uint64_t id = 0; id < streams; id += 2) {
            std::span<const std::uint8_t> rest =
                std::span(sent[id]).subspan(delivered[id]);
            oracle.onDeliver(id, rest);
            ledger.onDeliver(id, rest);
        }
        for (std::uint64_t id = 0; id < streams; ++id) {
            EXPECT_EQ(oracle.deliveredBytes(id), ledger.deliveredBytes(id));
            oracle.expectFullyDelivered(id);
            ledger.expectFullyDelivered(id);
        }
        ASSERT_EQ(oracle.report(), ledger.report()) << "round " << round;
        ASSERT_EQ(oracle.ledgerDigest(), ledger.ledgerDigest())
            << "round " << round;
    }
}

std::vector<std::uint8_t>
countingBytes(std::size_t n, std::size_t from = 0)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(from + i);
    return out;
}

TEST(StreamOracle, NamesTheCorruptByteInsideASpan)
{
    StreamOracle oracle;
    oracle.onSend(3, countingBytes(100));
    oracle.onDeliver(3, countingBytes(40));
    std::vector<std::uint8_t> span = countingBytes(60, 40);
    span[25] = 0xee; // stream offset 65, where 0x41 was sent
    oracle.onDeliver(3, span);

    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations()[0],
              "stream 3: corrupt byte at offset 65: expected 0x41, "
              "got 0xee");
    EXPECT_EQ(oracle.deliveredBytes(3), 100u);
}

TEST(StreamOracle, NamesTheFirstByteBeyondWhatWasSent)
{
    StreamOracle oracle;
    oracle.onSend(7, countingBytes(10));
    oracle.onDeliver(7, countingBytes(8));
    oracle.onDeliver(7, countingBytes(8, 8)); // 6 bytes past the end

    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations()[0],
              "stream 7: delivered byte at offset 10 beyond the 10 bytes "
              "ever sent");
    EXPECT_EQ(oracle.deliveredBytes(7), 16u);
}

TEST(StreamOracle, ReportsOneViolationPerStream)
{
    StreamOracle oracle;
    for (std::uint64_t id : {1u, 2u})
        oracle.onSend(id, countingBytes(64));

    std::vector<std::uint8_t> bad = countingBytes(32);
    bad[0] ^= 0xff;
    bad[31] ^= 0xff;
    oracle.onDeliver(1, bad);
    oracle.onDeliver(1, bad);                // more corruption
    oracle.onDeliver(1, countingBytes(40));  // and 8 bytes past the end
    oracle.onDeliver(2, countingBytes(80));  // 16 bytes past the end
    oracle.onDeliver(2, countingBytes(8));

    ASSERT_EQ(oracle.violations().size(), 2u);
    EXPECT_EQ(oracle.violations()[0],
              "stream 1: corrupt byte at offset 0: expected 0x00, got "
              "0xff");
    EXPECT_EQ(oracle.violations()[1],
              "stream 2: delivered byte at offset 64 beyond the 64 bytes "
              "ever sent");
    EXPECT_FALSE(oracle.passed());
}

} // namespace
} // namespace f4t::net
