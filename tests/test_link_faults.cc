/**
 * @file
 * Focused tests for the link fault injector (net::LinkDirection):
 * deterministic scheduled drops (the Fig. 14 loss schedule), seed
 * reproducibility (identical seeds must drop byte-identical packets —
 * the property the differential fuzzer leans on), duplicate
 * accounting, reorder-delay bounds, and per-direction fault models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"

namespace f4t::net
{
namespace
{

struct CollectingSink : PacketSink
{
    std::vector<Packet> packets;
    std::vector<sim::Tick> arrivals;
    sim::Simulation *sim = nullptr;

    void
    receivePacket(Packet &&pkt) override
    {
        packets.push_back(std::move(pkt));
        if (sim != nullptr)
            arrivals.push_back(sim->now());
    }
};

Packet
taggedPacket(std::uint32_t tag)
{
    TcpHeader tcp;
    tcp.seq = tag; // identifies the packet after delivery
    std::vector<std::uint8_t> payload(64);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(tag + i);
    return Packet::makeTcp(MacAddress{}, MacAddress{}, Ipv4Address{},
                           Ipv4Address{}, tcp, std::move(payload));
}

/** Send @p n tagged packets spaced 10 us apart; return delivered tags. */
std::vector<std::uint32_t>
runTaggedStream(const FaultModel &faults, int n,
                std::vector<sim::Tick> *arrivals = nullptr,
                std::vector<sim::Tick> *send_times = nullptr)
{
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0, faults);
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    for (int i = 0; i < n; ++i) {
        sim.queue().scheduleCallback(
            sim::microsecondsToTicks(10.0 * (i + 1)),
            [&link, &sim, i, send_times] {
                if (send_times != nullptr)
                    send_times->push_back(sim.now());
                link.aToB().send(taggedPacket(static_cast<std::uint32_t>(i)));
            });
    }
    sim.run();

    std::vector<std::uint32_t> tags;
    for (const Packet &pkt : b.packets)
        tags.push_back(pkt.tcp().seq);
    if (arrivals != nullptr)
        *arrivals = b.arrivals;
    return tags;
}

TEST(LinkFaults, DropAtTicksHitsExactlyTheScheduledInstants)
{
    // Packets at 10,20,...,100 us; schedule drops just before the
    // sends at 30 us and 70 us: those two packets (tags 2 and 6) and
    // only those must vanish.
    FaultModel faults;
    faults.dropAtTicks = {sim::microsecondsToTicks(29),
                          sim::microsecondsToTicks(69)};
    std::vector<std::uint32_t> tags = runTaggedStream(faults, 10);

    std::vector<std::uint32_t> expect{0, 1, 3, 4, 5, 7, 8, 9};
    EXPECT_EQ(tags, expect);
}

TEST(LinkFaults, DropAtTicksIsDeterministicAcrossRuns)
{
    FaultModel faults;
    faults.dropProbability = 0.2; // probabilistic drops on top
    faults.seed = 99;
    faults.dropAtTicks = {sim::microsecondsToTicks(45)};

    std::vector<std::uint32_t> first = runTaggedStream(faults, 50);
    std::vector<std::uint32_t> second = runTaggedStream(faults, 50);
    EXPECT_EQ(first, second);
    EXPECT_LT(first.size(), 50u); // something actually dropped
}

TEST(LinkFaults, IdenticalSeedsDropByteIdenticalPackets)
{
    FaultModel faults;
    faults.dropProbability = 0.25;
    faults.seed = 1234;

    std::vector<std::uint32_t> tags_a = runTaggedStream(faults, 200);
    std::vector<std::uint32_t> tags_b = runTaggedStream(faults, 200);
    ASSERT_EQ(tags_a, tags_b); // same packets survive...

    // ... and a different seed picks a different drop pattern.
    faults.seed = 1235;
    std::vector<std::uint32_t> tags_c = runTaggedStream(faults, 200);
    EXPECT_NE(tags_a, tags_c);
}

TEST(LinkFaults, DuplicateCountsAreConsistentAndDeterministic)
{
    FaultModel faults;
    faults.duplicateProbability = 0.3;
    faults.seed = 7;

    constexpr int n = 500;
    std::vector<std::uint32_t> tags = runTaggedStream(faults, n);
    ASSERT_GT(tags.size(), static_cast<std::size_t>(n)); // extras exist

    // Every duplicate is byte-identical to an original: per tag the
    // count is 1 or 2, never 0 or 3 (single duplication per packet).
    std::vector<int> copies(n, 0);
    for (std::uint32_t tag : tags)
        ++copies[tag];
    std::size_t duplicated = 0;
    for (int c : copies) {
        ASSERT_GE(c, 1);
        ASSERT_LE(c, 2);
        if (c == 2)
            ++duplicated;
    }
    EXPECT_EQ(tags.size(), static_cast<std::size_t>(n) + duplicated);
    // Rough rate check: ~30 % +- 6 points.
    EXPECT_NEAR(static_cast<double>(duplicated) / n, 0.3, 0.06);

    // Determinism: the same seed duplicates the same packets.
    EXPECT_EQ(runTaggedStream(faults, n), tags);
}

TEST(LinkFaults, ReorderDelayStaysWithinConfiguredBound)
{
    FaultModel faults;
    faults.reorderProbability = 1.0; // every packet delayed
    faults.reorderMaxDelay = sim::microsecondsToTicks(5);
    faults.seed = 21;

    std::vector<sim::Tick> arrivals;
    std::vector<sim::Tick> send_times;
    std::vector<std::uint32_t> tags =
        runTaggedStream(faults, 40, &arrivals, &send_times);
    ASSERT_EQ(tags.size(), 40u);
    ASSERT_EQ(send_times.size(), 40u);

    // Packets are spaced 10 us apart and delays cap at 5 us, so
    // delivery order == send order and each extra delay is in
    // [0, reorderMaxDelay] beyond the serialization time.
    Packet probe = taggedPacket(0);
    sim::Tick tx_time =
        sim::secondsToTicks(static_cast<double>(probe.wireBytes()) * 8.0 /
                            100e9);
    for (std::size_t i = 0; i < tags.size(); ++i) {
        ASSERT_EQ(tags[i], i);
        sim::Tick extra = arrivals[i] - send_times[i] - tx_time;
        EXPECT_LE(extra, faults.reorderMaxDelay)
            << "packet " << i << " delayed " << extra << " ticks";
    }
}

TEST(LinkFaults, PerDirectionModelsAreIndependent)
{
    // A->B drops everything, B->A is clean: the asymmetric constructor
    // must keep the two directions' models (and RNG streams) apart.
    sim::Simulation sim;
    FaultModel lossy;
    lossy.dropProbability = 1.0;
    lossy.seed = 3;
    FaultModel clean;
    clean.seed = 4;
    Link link(sim, "link", 100e9, 0, lossy, clean);
    CollectingSink a, b;
    link.connect(a, b);

    for (std::uint32_t i = 0; i < 20; ++i) {
        link.aToB().send(taggedPacket(i));
        link.bToA().send(taggedPacket(i));
    }
    sim.run();

    EXPECT_EQ(b.packets.size(), 0u);
    EXPECT_EQ(a.packets.size(), 20u);
    EXPECT_EQ(link.aToB().packetsDropped(), 20u);
    EXPECT_EQ(link.bToA().packetsDropped(), 0u);
}

TEST(LinkFaults, SymmetricConstructorDerivesDistinctReverseStream)
{
    // The legacy single-model constructor must not mirror drops: the
    // reverse direction runs the same rates on a derived seed.
    sim::Simulation sim;
    FaultModel faults;
    faults.dropProbability = 0.5;
    faults.seed = 42;
    Link link(sim, "link", 100e9, 0, faults);
    CollectingSink a, b;
    link.connect(a, b);

    for (std::uint32_t i = 0; i < 200; ++i) {
        link.aToB().send(taggedPacket(i));
        link.bToA().send(taggedPacket(i));
    }
    sim.run();

    auto tags = [](const CollectingSink &sink) {
        std::vector<std::uint32_t> out;
        for (const Packet &pkt : sink.packets)
            out.push_back(pkt.tcp().seq);
        return out;
    };
    EXPECT_NE(tags(a), tags(b)); // different survivors per direction
}

} // namespace
} // namespace f4t::net
