/**
 * @file
 * Tests for the observability layer: the text trace's kind selection
 * and line format, probes drawn into the Chrome trace-event sink, the
 * periodic stat sampler, pcap export, and the
 * stats-framework pieces they build on (JSON dump, histogram
 * percentiles, reservoir behaviour, tick-stamped logging).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "net/pcap_writer.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace f4t
{
namespace
{

using sim::fr::Kind;
using sim::trace::selected;

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// flag selection
// ---------------------------------------------------------------------

TEST(TraceFlags, GlobMatch)
{
    using sim::trace::globMatch;
    EXPECT_TRUE(globMatch("fpc", "Fpc"));
    EXPECT_TRUE(globMatch("FPC", "fpc"));
    EXPECT_TRUE(globMatch("*", "Scheduler"));
    EXPECT_TRUE(globMatch("sch*", "Scheduler"));
    EXPECT_TRUE(globMatch("*tcp", "SoftTcp"));
    EXPECT_TRUE(globMatch("?pc", "Fpc"));
    EXPECT_TRUE(globMatch("*e*", "Timer"));
    EXPECT_FALSE(globMatch("fpc", "Fpcx"));
    EXPECT_FALSE(globMatch("sch*x", "Scheduler"));
    EXPECT_FALSE(globMatch("?", "Fpc"));
    EXPECT_FALSE(globMatch("", "Fpc"));
    EXPECT_TRUE(globMatch("", ""));
    EXPECT_TRUE(globMatch("**", "Link"));
}

TEST(TraceFlags, SetFlagsSelectsAndNegates)
{
    sim::trace::clearSelection();
    EXPECT_FALSE(selected(Kind::fpcInstall));

    std::size_t changed = sim::trace::select("fpc_install,sched_evict");
    EXPECT_EQ(changed, 2u);
    EXPECT_TRUE(selected(Kind::fpcInstall));
    EXPECT_TRUE(selected(Kind::schedEvict));
    EXPECT_FALSE(selected(Kind::linkTx));

    // '*' selects every kind; a trailing '-pattern' subtracts.
    sim::trace::clearSelection();
    sim::trace::select("*,-link*");
    EXPECT_TRUE(selected(Kind::fpcInstall));
    EXPECT_TRUE(selected(Kind::timerFire));
    EXPECT_FALSE(selected(Kind::linkTx));
    EXPECT_FALSE(selected(Kind::linkFault));

    // Last match wins; a glob selects a family of kinds.
    sim::trace::select("-*,fpc*");
    EXPECT_TRUE(selected(Kind::fpcUserSend));
    EXPECT_TRUE(selected(Kind::fpcEvict));
    EXPECT_FALSE(selected(Kind::fpuPass));
    EXPECT_FALSE(selected(Kind::schedEvict));

    sim::trace::clearSelection();
    EXPECT_FALSE(selected(Kind::fpcUserSend));
}

TEST(TraceFlags, UnknownPatternChangesNothing)
{
    sim::trace::clearSelection();
    EXPECT_EQ(sim::trace::select("nosuchkind"), 0u);
    for (std::size_t i = 0; i < sim::fr::numKinds; ++i)
        EXPECT_FALSE(selected(static_cast<Kind>(i)));
}

TEST(TraceFlags, ProbeLinesAreLabelledAndTickStamped)
{
    std::string path = tempPath("f4t_trace_lines.txt");
    std::FILE *out = std::fopen(path.c_str(), "w+");
    ASSERT_NE(out, nullptr);
    sim::trace::setOutput(out);
    sim::trace::select("pcie*");

    {
        sim::Simulation sim;
        sim::SimObject pcie(sim, "test.pcie");
        sim.queue().scheduleCallback(1234, [&] {
            pcie.probe(Kind::pcieDma, 7, 64, 1);
            pcie.probe(Kind::pcieDoorbell, 0);
            pcie.probe(Kind::linkTx, 7, 99); // not selected
        });
        sim.runFor(5000);
    }

    sim::trace::setOutput(nullptr);
    std::fclose(out);
    sim::trace::clearSelection();

    // "<tick>: <module>: <record>", the words named by the probe table;
    // a kind without payload words prints none.
    std::string text = slurp(path);
    EXPECT_NE(text.find("        1234: test.pcie: pcie_dma flow=00000007 "
                        "bytes=64 d2h=1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("        1234: test.pcie: pcie_doorbell "
                        "flow=00000000\n"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("link_tx"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// simulation hooks (tick-prefixed warnings, observers)
// ---------------------------------------------------------------------

TEST(TraceHooks, CurrentSimTickFollowsSimulationLifetime)
{
    std::uint64_t tick = 99;
    EXPECT_FALSE(sim::detail::currentSimTick(tick));
    {
        sim::Simulation outer;
        ASSERT_TRUE(sim::detail::currentSimTick(tick));
        EXPECT_EQ(tick, 0u);

        outer.queue().scheduleCallback(777, [] {});
        outer.runFor(777);
        ASSERT_TRUE(sim::detail::currentSimTick(tick));
        EXPECT_EQ(tick, outer.now());

        {
            // The most recently constructed simulation owns the stamp.
            sim::Simulation inner;
            ASSERT_TRUE(sim::detail::currentSimTick(tick));
            EXPECT_EQ(tick, 0u);
        }
        ASSERT_TRUE(sim::detail::currentSimTick(tick));
        EXPECT_EQ(tick, outer.now());
    }
    EXPECT_FALSE(sim::detail::currentSimTick(tick));
}

TEST(TraceHooks, SimulationObserversFire)
{
    int created = 0;
    int destroyed = 0;
    sim::trace::setSimulationObservers(
        [&](sim::Simulation &) { ++created; },
        [&](sim::Simulation &) { ++destroyed; });
    {
        sim::Simulation a;
        EXPECT_EQ(created, 1);
        sim::Simulation b;
        EXPECT_EQ(created, 2);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 2);
    sim::trace::setSimulationObservers({}, {});
    {
        sim::Simulation c;
    }
    EXPECT_EQ(created, 2);
    EXPECT_EQ(destroyed, 2);
}

// ---------------------------------------------------------------------
// timeline sink
// ---------------------------------------------------------------------

TEST(TraceEventSink, WritesChromeTraceJson)
{
    sim::trace::TraceEventSink sink;
    // Nested spans on one track; the timestamps are microseconds with
    // picosecond precision preserved as fractional digits.
    sink.span("fpc0", "fpu", "outer", 1'000'000, 5'000'000);
    sink.span("fpc0", "fpu", "inner", 2'000'000, 3'500'000);
    sink.instant("link", "drop", "drop \"a\"", 2'500'000);
    EXPECT_EQ(sink.eventCount(), 3u);

    std::stringstream ss;
    sink.write(ss);
    std::string json = ss.str();

    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // Track-name metadata events, one per track.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"fpc0\""), std::string::npos);
    EXPECT_NE(json.find("\"link\""), std::string::npos);
    // The outer span: 1 us start, 4 us duration.
    EXPECT_NE(json.find("\"ts\":1.000000,\"name\":\"outer\","
                        "\"cat\":\"fpu\",\"dur\":4.000000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\":2.000000,\"name\":\"inner\","
                        "\"cat\":\"fpu\",\"dur\":1.500000"),
              std::string::npos);
    // Instants carry the scope field; quotes in names are escaped.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("drop \\\"a\\\""), std::string::npos);

    // Both spans live on the same tid; the instant is on another. The
    // tid field precedes the name, so scan backwards from the name.
    auto tid_of = [&](const char *name) {
        std::size_t pos = json.find(std::string("\"name\":\"") + name);
        EXPECT_NE(pos, std::string::npos);
        std::size_t tid = json.rfind("\"tid\":", pos);
        return json.substr(tid + 6, 1);
    };
    EXPECT_EQ(tid_of("outer"), tid_of("inner"));
    EXPECT_NE(tid_of("outer"), tid_of("drop \\\"a\\\""));
}

TEST(TraceEventSink, ProbesDrawTheirKindsCategory)
{
    sim::trace::TraceEventSink sink;
    {
        sim::Simulation sim;
        sim.setTimeline(&sink);
        sim::SimObject obj(sim, "test.obj");
        sim.queue().scheduleCallback(2'000'000, [&] {
            obj.probeSpan(Kind::pcieDma, 0, 64, 0, 1'000'000, 3'000'000);
            obj.probe(Kind::timerFire, 5, 1);
            obj.probe(Kind::rxParse, 5, 100, 0); // no timeline category
        });
        sim.runFor(5'000'000);
    }
    EXPECT_EQ(sink.eventCount(), 2u);

    std::stringstream ss;
    sink.write(ss);
    std::string json = ss.str();
    // The event name is the record spelled by the probe table.
    EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000000,"
                        "\"name\":\"pcie_dma flow=00000000 bytes=64 d2h=0\","
                        "\"cat\":\"dma\",\"dur\":2.000000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\":2.000000,\"name\":\"timer_fire "
                        "flow=00000005 timer=1\",\"cat\":\"timer\""),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("rx_parse"), std::string::npos) << json;
}

TEST(TraceEventSink, BoundedBufferCountsDrops)
{
    sim::trace::TraceEventSink sink(3);
    for (int i = 0; i < 5; ++i)
        sink.instant("t", "c", std::string("e") + char('0' + i), i);
    EXPECT_EQ(sink.eventCount(), 3u);
    EXPECT_EQ(sink.droppedEvents(), 2u);
}

TEST(TraceEventSink, OverflowEmitsDropCounterRecord)
{
    sim::trace::TraceEventSink sink(2);
    for (int i = 0; i < 6; ++i)
        sink.instant("t", "c", "evt", 1'000'000 * (i + 1));
    ASSERT_EQ(sink.droppedEvents(), 4u);

    std::stringstream ss;
    sink.write(ss);
    std::string json = ss.str();
    // The truncated document must say so: a final counter record with
    // the drop count, stamped at the last retained event (2 us).
    EXPECT_NE(json.find("\"name\":\"trace.droppedEvents\",\"cat\":"
                        "\"meta\",\"args\":{\"value\":4}"),
              std::string::npos)
        << json;
    std::size_t marker = json.find("trace.droppedEvents");
    std::size_t ts = json.rfind("\"ts\":2.000000", marker);
    EXPECT_NE(ts, std::string::npos) << json;
}

TEST(TraceEventSink, NoDropRecordWithoutOverflow)
{
    sim::trace::TraceEventSink sink;
    sink.instant("t", "c", "evt", 1'000'000);
    std::stringstream ss;
    sink.write(ss);
    EXPECT_EQ(ss.str().find("trace.droppedEvents"), std::string::npos);
}

TEST(TraceEventSink, WriteFileRoundTrips)
{
    std::string path = tempPath("f4t_timeline.json");
    sim::trace::TraceEventSink sink;
    sink.instant("track", "cat", "evt", 1'000'000);
    ASSERT_TRUE(sink.writeFile(path));
    std::string text = slurp(path);
    EXPECT_NE(text.find("\"evt\""), std::string::npos);
    ASSERT_GE(text.size(), 2u);
    EXPECT_EQ(text.substr(text.size() - 2), "}\n");
}

// ---------------------------------------------------------------------
// stat sampler
// ---------------------------------------------------------------------

TEST(StatSampler, CsvTimeSeriesAndJsonSnapshot)
{
    std::string csv_path = tempPath("f4t_series.csv");
    std::string json_path = tempPath("f4t_series.json");

    sim::Simulation sim;
    sim::Scalar gauge(sim.stats(), "test.gauge", "a gauge");
    sim::Counter ticks(sim.stats(), "test.ticks", "a counter");
    sim::Scalar hidden(sim.stats(), "other.hidden", "not selected");

    {
        // Scoped: the sampler flushes its CSV stream on destruction.
        sim::trace::StatSampler sampler(sim, 1000);
        sampler.selectStats("test.*");
        sampler.setCsvPath(csv_path);
        sampler.setStatsJsonPath(json_path);
        sampler.addProbe("doubled", [&] { return gauge.value() * 2; });
        sampler.start();

        gauge = 1.5;
        hidden = 9.0;
        sim.queue().scheduleCallback(4500, [&] {
            gauge = 4.0;
            ticks += 3;
        });
        sim.runFor(10'500);
        EXPECT_EQ(sampler.samplesTaken(), 10u);
    }

    std::ifstream in(csv_path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, "tick_ps,time_us,test.gauge,test.ticks,doubled");

    std::vector<std::string> rows;
    for (std::string line; std::getline(in, line);)
        rows.push_back(line);
    ASSERT_EQ(rows.size(), 10u);
    // First sample at tick 1000 (1e-3 us): gauge still 1.5.
    EXPECT_EQ(rows[0].substr(0, rows[0].find(',')), "1000");
    EXPECT_NE(rows[0].find(",1.5,"), std::string::npos) << rows[0];
    EXPECT_NE(rows[0].find(",3"), std::string::npos); // probe 2*1.5
    // Fifth sample (tick 5000) sees the bump at 4500.
    EXPECT_NE(rows[4].find(",4,"), std::string::npos) << rows[4];
    EXPECT_NE(rows[4].find(",8"), std::string::npos);

    // The JSON snapshot is rewritten every fire; the survivor holds the
    // end-of-run values of the full registry (selection only limits the
    // CSV columns).
    std::string json = slurp(json_path);
    EXPECT_NE(json.find("\"test.gauge\": 4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"test.ticks\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"other.hidden\": 9"), std::string::npos);
}

TEST(StatSampler, MissingStatLeavesEmptyCell)
{
    std::string csv_path = tempPath("f4t_series_gone.csv");
    sim::Simulation sim;
    auto departing = std::make_unique<sim::Scalar>(
        sim.stats(), "test.departing", "deregisters mid-run");
    *departing = 7.0;

    {
        sim::trace::StatSampler sampler(sim, 1000);
        sampler.selectStats("test.*");
        sampler.setCsvPath(csv_path);
        sampler.start();
        sim.queue().scheduleCallback(2500, [&] {
            departing.reset();
        });
        sim.runFor(4'000);
    }

    std::ifstream in(csv_path);
    std::string header, row1, row3;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row1));
    ASSERT_TRUE(std::getline(in, row3));
    ASSERT_TRUE(std::getline(in, row3));
    EXPECT_NE(row1.find(",7"), std::string::npos);
    // After deregistration the column stays but the cell is empty.
    EXPECT_EQ(row3.substr(row3.size() - 1), ",") << row3;
}

// ---------------------------------------------------------------------
// pcap export
// ---------------------------------------------------------------------

net::Packet
makeTestPacket(std::uint16_t src_port, std::size_t payload_bytes)
{
    net::TcpHeader tcp;
    tcp.srcPort = src_port;
    tcp.dstPort = 80;
    tcp.seq = 1000;
    tcp.ack = 2000;
    tcp.flags = net::TcpFlags::ack | net::TcpFlags::psh;
    tcp.window = 65535;
    net::PayloadBuffer payload(payload_bytes);
    for (std::size_t i = 0; i < payload_bytes; ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    return net::Packet::makeTcp(
        net::MacAddress{{2, 0, 0, 0, 0, 1}},
        net::MacAddress{{2, 0, 0, 0, 0, 2}},
        net::Ipv4Address::fromOctets(10, 0, 0, 1),
        net::Ipv4Address::fromOctets(10, 0, 0, 2), tcp,
        std::move(payload));
}

std::uint32_t
le32(const std::string &bytes, std::size_t at)
{
    return static_cast<std::uint8_t>(bytes[at]) |
           static_cast<std::uint8_t>(bytes[at + 1]) << 8 |
           static_cast<std::uint8_t>(bytes[at + 2]) << 16 |
           static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes[at + 3]))
               << 24;
}

TEST(PcapWriter, FileFormatRoundTrips)
{
    std::string path = tempPath("f4t_test.pcap");
    net::Packet first = makeTestPacket(1234, 64);
    net::Packet second = makeTestPacket(5678, 0);
    {
        net::PcapWriter writer(path);
        ASSERT_TRUE(writer.ok());
        // 3 us and 2.5 s: exercises both timestamp fields.
        std::size_t a = writer.record(3'000'000, first, "a->b");
        writer.record(sim::secondsToTicks(2.5), second, "b->a");
        writer.annotate(a, "drop");
        writer.annotate(a, "test-note");
        EXPECT_EQ(writer.records(), 2u);
        writer.flush();
    }

    std::string bytes = slurp(path);
    // Global header: magic, version 2.4, LINKTYPE_ETHERNET.
    ASSERT_GE(bytes.size(), 24u);
    EXPECT_EQ(le32(bytes, 0), 0xa1b2c3d4u);
    EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]), 2); // version major
    EXPECT_EQ(static_cast<std::uint8_t>(bytes[6]), 4); // version minor
    EXPECT_EQ(le32(bytes, 20), 1u);                    // network

    // First record: ts 0 s + 3 us, full frame, parseable.
    std::vector<std::uint8_t> first_wire = first.serialize();
    std::size_t rec = 24;
    EXPECT_EQ(le32(bytes, rec + 0), 0u);
    EXPECT_EQ(le32(bytes, rec + 4), 3u);
    ASSERT_EQ(le32(bytes, rec + 8), first_wire.size());
    EXPECT_EQ(le32(bytes, rec + 12), first_wire.size());
    std::vector<std::uint8_t> frame(first_wire.size());
    std::memcpy(frame.data(), bytes.data() + rec + 16, frame.size());
    EXPECT_EQ(frame, first_wire);
    auto parsed = net::Packet::parseWire(frame);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tcp().srcPort, 1234);
    EXPECT_EQ(parsed->payload.size(), 64u);

    // Second record: 2.5 s = 2 s + 500000 us.
    std::size_t rec2 = rec + 16 + first_wire.size();
    EXPECT_EQ(le32(bytes, rec2 + 0), 2u);
    EXPECT_EQ(le32(bytes, rec2 + 4), 500'000u);

    // Sidecar index carries the simulator-only annotations.
    std::string sidecar = slurp(path + ".index");
    EXPECT_NE(sidecar.find("drop,test-note"), std::string::npos)
        << sidecar;
    EXPECT_NE(sidecar.find("a->b"), std::string::npos);
    EXPECT_NE(sidecar.find("3000000"), std::string::npos);
}

TEST(PcapWriter, LinkCaptureAnnotatesInjectedDrops)
{
    std::string path = tempPath("f4t_link.pcap");

    struct SinkCounter : net::PacketSink
    {
        std::size_t received = 0;
        void receivePacket(net::Packet &&) override { ++received; }
    };

    sim::Simulation sim;
    net::FaultModel faults;
    faults.dropAtTicks.push_back(0); // first frame sent is dropped
    net::Link link(sim, "testlink", 10e9, sim::microsecondsToTicks(1),
                   faults);
    SinkCounter a, b;
    link.connect(a, b);
    {
        net::PcapWriter writer(path);
        ASSERT_TRUE(writer.ok());
        link.attachPcap(&writer);

        link.aToB().send(makeTestPacket(1111, 32));
        link.aToB().send(makeTestPacket(2222, 32));
        sim.runFor(sim::microsecondsToTicks(100));
        // Both frames captured, even though only one arrived.
        EXPECT_EQ(writer.records(), 2u);
        EXPECT_EQ(b.received, 1u);
        writer.flush();
    }

    std::string sidecar = slurp(path + ".index");
    EXPECT_NE(sidecar.find("drop(scheduled)"), std::string::npos)
        << sidecar;
}

// ---------------------------------------------------------------------
// stats framework (dumpJson + histogram edge cases)
// ---------------------------------------------------------------------

TEST(Stats, DumpJsonCoversAllStatTypes)
{
    sim::StatRegistry registry;
    sim::Scalar gauge(registry, "a.gauge", "g");
    sim::Counter counter(registry, "a.counter", "c");
    sim::Histogram hist(registry, "a.hist", "h");
    gauge = 2.5;
    counter += 42;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        hist.sample(v);

    std::stringstream ss;
    registry.dumpJson(ss);
    std::string json = ss.str();

    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"a.gauge\": 2.5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"a.counter\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"a.hist\": {\"count\":4"), std::string::npos);
    EXPECT_NE(json.find("\"mean\":2.5"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    // Ends with a closing brace + newline, no trailing comma before it.
    EXPECT_EQ(json.substr(json.size() - 3), "\n}\n");
}

TEST(Stats, HistogramPercentilesExactBelowCap)
{
    sim::StatRegistry registry;
    sim::Histogram hist(registry, "h", "d", /*reservoir_cap=*/1000);
    // Insert 1..100 out of order.
    for (int i = 100; i >= 1; --i)
        hist.sample(i);

    EXPECT_EQ(hist.count(), 100u);
    EXPECT_DOUBLE_EQ(hist.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(hist.percentile(100), 100.0);
    // Linear interpolation on the (n-1) rank: p50 of 1..100 is 50.5.
    EXPECT_DOUBLE_EQ(hist.percentile(50), 50.5);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
}

TEST(Stats, HistogramReservoirPastCap)
{
    sim::StatRegistry registry;
    sim::Histogram hist(registry, "h", "d", /*reservoir_cap=*/64);
    for (int i = 1; i <= 10'000; ++i)
        hist.sample(i);

    // Aggregates stay exact past the cap...
    EXPECT_EQ(hist.count(), 10'000u);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 10'000.0);
    EXPECT_DOUBLE_EQ(hist.sum(), 10'000.0 * 10'001.0 / 2.0);
    // ...while percentiles come from the reservoir: in range and
    // monotone.
    double p10 = hist.percentile(10);
    double p50 = hist.percentile(50);
    double p90 = hist.percentile(90);
    EXPECT_GE(p10, 1.0);
    EXPECT_LE(p90, 10'000.0);
    EXPECT_LE(p10, p50);
    EXPECT_LE(p50, p90);
    // The reservoir is uniform, so the median lands loosely mid-range.
    EXPECT_GT(p50, 1'000.0);
    EXPECT_LT(p50, 9'000.0);
}

TEST(Stats, ResetAllClearsEveryKind)
{
    sim::StatRegistry registry;
    sim::Scalar gauge(registry, "g", "");
    sim::Counter counter(registry, "c", "");
    sim::Histogram hist(registry, "h", "");
    gauge = 5.0;
    ++counter;
    hist.sample(9.0);

    registry.resetAll();
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(Stats, DuplicateNameDies)
{
    sim::StatRegistry registry;
    sim::Scalar first(registry, "same.name", "");
    F4T_EXPECT_PANIC(sim::Scalar(registry, "same.name", ""), "duplicate");
}

TEST(Stats, SampleValueSnapshots)
{
    sim::StatRegistry registry;
    sim::Scalar gauge(registry, "g", "");
    sim::Counter counter(registry, "c", "");
    sim::Histogram hist(registry, "h", "");
    gauge = 2.5;
    counter += 7;
    hist.sample(1.0);
    hist.sample(3.0);

    const sim::StatBase *gp = registry.find("g");
    ASSERT_NE(gp, nullptr);
    EXPECT_DOUBLE_EQ(gp->sampleValue(), 2.5);
    EXPECT_DOUBLE_EQ(registry.find("c")->sampleValue(), 7.0);
    EXPECT_DOUBLE_EQ(registry.find("h")->sampleValue(), 2.0);
}

} // namespace
} // namespace f4t
