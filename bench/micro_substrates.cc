/**
 * @file
 * google-benchmark microbenchmarks of the substrate hot paths: the
 * operations a hardware implementation does every cycle (and the
 * simulator therefore does hundreds of millions of times per run).
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <unordered_map>
#include <vector>

#include "net/checksum.hh"
#include "net/cuckoo_hash.hh"
#include "net/four_tuple.hh"
#include "net/interval_set.hh"
#include "net/packet.hh"
#include "tcp/congestion.hh"
#include "tcp/fpu_program.hh"
#include "tcp/tcb.hh"

namespace
{

using namespace f4t;

net::FourTuple
tupleFor(std::uint32_t i)
{
    return net::FourTuple{net::Ipv4Address{0x0a000001},
                          static_cast<std::uint16_t>(1000 + (i % 60000)),
                          net::Ipv4Address{0x0a000002 + i / 60000},
                          static_cast<std::uint16_t>(2000 + (i % 50000))};
}

void
BM_CuckooLookup(benchmark::State &state)
{
    net::CuckooHashTable<net::FourTuple, std::uint32_t,
                         net::FourTupleHash>
        table(65536);
    for (std::uint32_t i = 0; i < 60000; ++i)
        table.insert(tupleFor(i), i);
    std::uint32_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(tupleFor(i % 60000)));
        ++i;
    }
}
BENCHMARK(BM_CuckooLookup);

void
BM_CuckooInsertErase(benchmark::State &state)
{
    net::CuckooHashTable<net::FourTuple, std::uint32_t,
                         net::FourTupleHash>
        table(65536);
    std::uint32_t i = 0;
    for (auto _ : state) {
        table.insert(tupleFor(i), i);
        table.erase(tupleFor(i));
        ++i;
    }
}
BENCHMARK(BM_CuckooInsertErase);

void
BM_CuckooChurnHighLoad(benchmark::State &state)
{
    // 65536-slot table held at ~90 % occupancy: every insert runs the
    // collision/kick path that dominates at many-connection scale.
    net::CuckooHashTable<net::FourTuple, std::uint32_t,
                         net::FourTupleHash>
        table(8192);
    const std::uint32_t resident = 59000;
    for (std::uint32_t i = 0; i < resident; ++i)
        table.insert(tupleFor(i), i);
    std::uint32_t i = 0;
    for (auto _ : state) {
        table.erase(tupleFor(i % resident));
        table.insert(tupleFor(i % resident), i);
        ++i;
    }
}
BENCHMARK(BM_CuckooChurnHighLoad);

void
BM_InternetChecksum1460(benchmark::State &state)
{
    std::vector<std::uint8_t> payload(1460, 0xa5);
    for (auto _ : state)
        benchmark::DoNotOptimize(net::internetChecksum(payload));
}
BENCHMARK(BM_InternetChecksum1460);

void
BM_PacketSerializeParse(benchmark::State &state)
{
    net::TcpHeader tcp;
    tcp.srcPort = 1;
    tcp.dstPort = 2;
    net::Packet pkt = net::Packet::makeTcp(
        net::MacAddress{}, net::MacAddress{}, net::Ipv4Address{},
        net::Ipv4Address{}, tcp,
        std::vector<std::uint8_t>(state.range(0)));
    for (auto _ : state) {
        auto wire = pkt.serialize();
        benchmark::DoNotOptimize(net::Packet::parseWire(wire));
    }
}
BENCHMARK(BM_PacketSerializeParse)->Arg(64)->Arg(128)->Arg(1460);

void
BM_EventAccumulate(benchmark::State &state)
{
    tcp::Tcb tcb;
    tcb.state = tcp::ConnState::established;
    tcp::EventRecord record;
    tcp::TcpEvent ev;
    ev.type = tcp::TcpEventType::userSend;
    std::uint32_t offset = 0;
    for (auto _ : state) {
        ev.pointer = ++offset;
        tcp::accumulateEvent(record, tcb, ev);
        benchmark::DoNotOptimize(record);
    }
}
BENCHMARK(BM_EventAccumulate);

void
BM_MergeTcb(benchmark::State &state)
{
    tcp::Tcb tcb;
    tcp::EventRecord record;
    record.validMask = 0xff;
    record.req = 1000;
    for (auto _ : state)
        benchmark::DoNotOptimize(tcp::merge(tcb, record));
}
BENCHMARK(BM_MergeTcb);

void
BM_FpuPass(benchmark::State &state)
{
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program(cc);
    tcp::Tcb tcb;
    tcb.flowId = 1;
    tcb.state = tcp::ConnState::established;
    tcb.iss = 1000;
    tcb.sndUna = 1001;
    tcb.sndUnaProcessed = 1001;
    tcb.sndNxt = 1001;
    tcb.req = 1001;
    tcb.sndWnd = 1 << 20;
    cc.onInit(tcb);
    tcp::FpuActions actions;
    std::uint32_t offset = 0;
    std::uint64_t now_us = 0;
    for (auto _ : state) {
        offset += 128;
        tcb.req = 1001 + offset;
        tcb.sndUna = tcb.sndNxt; // everything sent so far got ACKed
        actions.clear();
        program.process(tcb, ++now_us, actions);
        benchmark::DoNotOptimize(actions);
    }
}
BENCHMARK(BM_FpuPass);

void
BM_CubeRoot(benchmark::State &state)
{
    std::uint64_t x = 12345;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tcp::CubicPolicy::cubeRoot(x));
        x = x * 2862933555777941757ULL + 3037000493ULL;
    }
}
BENCHMARK(BM_CubeRoot);

void
BM_IntervalSetInsert(benchmark::State &state)
{
    net::IntervalSet set;
    std::uint64_t offset = 0;
    for (auto _ : state) {
        // Alternating pattern exercising merges.
        set.insert(offset + 1460, offset + 2920);
        set.insert(offset, offset + 1460);
        offset += 2920;
        if (offset > 1 << 24) {
            set.clear();
            offset = 0;
        }
    }
}
BENCHMARK(BM_IntervalSetInsert);

/**
 * Per-flow hot-state layouts (DESIGN.md §17): a hash map of per-flow
 * structs (Arg(0), the pre-SoA scheduler/FPC layout — hot booleans
 * share cache lines with cold bulk behind a pointer chase) versus the
 * SoA bitmap-word layout the FPC now uses (Arg(1)). Each iteration
 * does one flow touch (update hot fields) plus one round-robin
 * first-eligible scan — the two operations the event hot loop performs
 * per absorbed event.
 */
void
BM_FlowStateMapVsSoA(benchmark::State &state)
{
    const bool soa = state.range(0) != 0;
    constexpr std::size_t slots = 1024;
    constexpr std::size_t words = slots / 64;
    struct FlowHot
    {
        bool occupied = false;
        bool inFpu = false;
        bool evictFlag = false;
        bool eventsValid = false;
        bool workPending = false;
        std::uint64_t lastActiveCycle = 0;
        std::uint32_t flow = 0;
        std::uint8_t coldBulk[40] = {}; ///< TCB bulk sharing the line
    };
    std::uint32_t tick = 0;
    std::size_t found = 0;

    if (!soa) {
        std::unordered_map<std::uint32_t, FlowHot> table;
        for (std::uint32_t i = 0; i < slots; ++i) {
            FlowHot h;
            h.occupied = true;
            h.flow = i;
            table.emplace(i, h);
        }
        for (auto _ : state) {
            std::uint32_t victim = (tick * 2654435761u) % slots;
            FlowHot &h = table.find(victim)->second;
            h.lastActiveCycle = tick;
            h.eventsValid = (victim & 63) == 1;
            std::size_t rr = tick % slots;
            for (std::size_t k = 0; k < slots; ++k) {
                std::size_t idx = rr + k;
                if (idx >= slots)
                    idx -= slots;
                const FlowHot &s =
                    table.find(static_cast<std::uint32_t>(idx))->second;
                if (s.occupied && !s.inFpu &&
                    (s.evictFlag || s.eventsValid || s.workPending)) {
                    found = idx;
                    break;
                }
            }
            benchmark::DoNotOptimize(found);
            ++tick;
        }
    } else {
        std::vector<std::uint64_t> occ(words, ~std::uint64_t{0});
        std::vector<std::uint64_t> fpu(words, 0), evict(words, 0),
            valid(words, 0), work(words, 0);
        std::vector<std::uint64_t> last_active(slots, 0);
        auto eligible = [&](std::size_t w) {
            return occ[w] & ~fpu[w] & (evict[w] | valid[w] | work[w]);
        };
        for (auto _ : state) {
            std::uint32_t victim = (tick * 2654435761u) % slots;
            last_active[victim] = tick;
            std::uint64_t mask = std::uint64_t{1} << (victim & 63);
            if ((victim & 63) == 1)
                valid[victim >> 6] |= mask;
            else
                valid[victim >> 6] &= ~mask;
            std::size_t rr = tick % slots;
            std::size_t w0 = rr >> 6;
            std::uint64_t word =
                eligible(w0) & (~std::uint64_t{0} << (rr & 63));
            found = slots;
            for (std::size_t w = w0;;) {
                if (word != 0) {
                    found = (w << 6) + static_cast<std::size_t>(
                                           std::countr_zero(word));
                    break;
                }
                if (++w == words)
                    break;
                word = eligible(w);
            }
            if (found == slots) {
                for (std::size_t w = 0; w <= w0; ++w) {
                    std::uint64_t wd = eligible(w);
                    if (wd != 0) {
                        found = (w << 6) + static_cast<std::size_t>(
                                               std::countr_zero(wd));
                        break;
                    }
                }
            }
            benchmark::DoNotOptimize(found);
            ++tick;
        }
    }
    state.SetLabel(soa ? "soa" : "map");
}
BENCHMARK(BM_FlowStateMapVsSoA)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
