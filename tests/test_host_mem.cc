/**
 * @file
 * Tests for the host and memory substrates: CPU cycle accounting,
 * PCIe bandwidth/latency, command rings, host TCP buffers, the BRAM
 * port budget, the DRAM channel, and the direct-mapped TCB cache.
 */

#include <gtest/gtest.h>

#include "harness.hh"
#include "host/command_queue.hh"
#include "host/cpu.hh"
#include "host/host_memory.hh"
#include "host/pcie.hh"
#include "mem/bram.hh"
#include "mem/dram.hh"
#include "mem/tcb_cache.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

TEST(CpuCore, ChargesAdvanceBusyHorizon)
{
    sim::Simulation sim;
    host::CpuCore core(sim, "core", 2.3e9);

    EXPECT_TRUE(core.idle());
    core.charge(tcp::CostCategory::application, 2300.0); // 1 us at 2.3 GHz
    EXPECT_FALSE(core.idle());
    EXPECT_NEAR(static_cast<double>(core.busyUntil()),
                static_cast<double>(sim::microsecondsToTicks(1)), 1000);

    // A second charge queues behind the first.
    core.charge(tcp::CostCategory::tcpStack, 2300.0);
    EXPECT_NEAR(static_cast<double>(core.busyUntil()),
                static_cast<double>(sim::microsecondsToTicks(2)), 2000);

    EXPECT_DOUBLE_EQ(core.categoryCycles(tcp::CostCategory::application),
                     2300.0);
    EXPECT_DOUBLE_EQ(core.categoryCycles(tcp::CostCategory::tcpStack),
                     2300.0);
    EXPECT_DOUBLE_EQ(core.totalBusyCycles(), 4600.0);
}

TEST(CpuCore, RunAfterChargeSequencesWork)
{
    sim::Simulation sim;
    host::CpuCore core(sim, "core", 1e9); // 1 GHz: 1 cycle = 1 ns

    std::vector<sim::Tick> stamps;
    core.runAfterCharge(tcp::CostCategory::application, 1000.0,
                        [&] { stamps.push_back(sim.now()); });
    core.runAfterCharge(tcp::CostCategory::application, 1000.0,
                        [&] { stamps.push_back(sim.now()); });
    sim.run();

    ASSERT_EQ(stamps.size(), 2u);
    EXPECT_NEAR(static_cast<double>(stamps[0]), 1000e3, 10); // 1 us
    EXPECT_NEAR(static_cast<double>(stamps[1]), 2000e3, 10); // serialized
}

TEST(Pcie, BandwidthSerializesTransfers)
{
    sim::Simulation sim;
    host::PcieConfig config;
    config.bandwidthBytesPerSec = 10e9;
    config.dmaLatency = sim::nanosecondsToTicks(500);
    config.transactionOverheadBytes = 0;
    host::PcieModel pcie(sim, "pcie", config);

    // Two 10 KB transfers: 1 us each on the wire, plus latency.
    sim::Tick first = pcie.hostToDevice(10'000);
    sim::Tick second = pcie.hostToDevice(10'000);
    EXPECT_NEAR(static_cast<double>(first),
                static_cast<double>(sim::microsecondsToTicks(1.5)), 2000);
    EXPECT_NEAR(static_cast<double>(second),
                static_cast<double>(sim::microsecondsToTicks(2.5)), 2000);

    // Directions are independent.
    sim::Tick reverse = pcie.deviceToHost(10'000);
    EXPECT_LT(reverse, second);
}

TEST(CommandQueue, RingDepthBackpressures)
{
    host::CommandQueue queue(4);
    host::Command cmd;
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.push(cmd));
    EXPECT_TRUE(queue.full());
    // Past the nominal depth: reported as backpressure, but the
    // elastic model still stores the entry (nothing is ever lost).
    EXPECT_FALSE(queue.push(cmd));
    auto batch = queue.popBatch(8);
    EXPECT_EQ(batch.size(), 5u);
    EXPECT_TRUE(queue.empty());
}

TEST(HostMemory, FlowBuffersLifecycle)
{
    host::HostMemory memory(1024);
    EXPECT_EQ(memory.find(5), nullptr);
    host::FlowBuffers &buffers = memory.ensure(5);
    EXPECT_EQ(buffers.tx.capacity(), 1024u);
    EXPECT_EQ(memory.flowCount(), 1u);
    EXPECT_EQ(&memory.ensure(5), &buffers);
    // Past the end of the table: absent, and the lookup adds nothing.
    EXPECT_EQ(memory.find(1u << 20), nullptr);
    EXPECT_EQ(memory.flowCount(), 1u);
    memory.release(5);
    EXPECT_EQ(memory.find(5), nullptr);
    EXPECT_EQ(memory.flowCount(), 0u);
    memory.release(5); // releasing twice is harmless
    EXPECT_EQ(memory.flowCount(), 0u);

    // A recycled flow ID gets fresh, empty buffers.
    host::FlowBuffers &again = memory.ensure(5);
    EXPECT_EQ(again.tx.size(), 0u);
    EXPECT_EQ(again.rxWritten, 0u);
    EXPECT_EQ(memory.flowCount(), 1u);
    EXPECT_EQ(memory.find(5), &again);
    memory.ensure(2);
    EXPECT_EQ(memory.flowCount(), 2u);
}

TEST(Bram, PortBudgetEnforced)
{
    mem::DualPortBram<int> bram(8);
    bram.newCycle(0);
    bram.write(0, 1);
    bram.read(0);
    F4T_EXPECT_PANIC(bram.read(1), "port overcommit");
}

TEST(Bram, NewCycleResetsBudget)
{
    mem::DualPortBram<int> bram(8);
    bram.newCycle(0);
    bram.write(3, 42);
    bram.read(3);
    bram.newCycle(1);
    EXPECT_EQ(bram.read(3), 42);
    bram.write(3, 43);
    EXPECT_EQ(bram.peek(3), 43);
}

TEST(Dram, BandwidthAndFloorGovernServiceTime)
{
    sim::Simulation sim;
    mem::DramConfig config = mem::DramConfig::ddr4();
    mem::DramModel dram(sim, "dram", config);

    // A TCB-sized transfer is floor-bound (30 ns >> 128 B / 38 GB/s).
    sim::Tick first = dram.accessTime(128);
    sim::Tick second = dram.accessTime(128);
    EXPECT_EQ(second - first, config.minServicePerRequest);

    // A large transfer is bandwidth-bound.
    sim::Tick big_start = dram.accessTime(0);
    sim::Tick big_end = dram.accessTime(1 << 20);
    double seconds = sim::ticksToSeconds(big_end - big_start);
    EXPECT_NEAR(seconds, (1 << 20) / 38e9, 5e-7);
}

TEST(Dram, HbmFloorsAreTighter)
{
    EXPECT_LT(mem::DramConfig::hbm().minServicePerRequest,
              mem::DramConfig::ddr4().minServicePerRequest);
    EXPECT_GT(mem::DramConfig::hbm().bandwidthBytesPerSec,
              mem::DramConfig::ddr4().bandwidthBytesPerSec);
}

TEST(TcbCache, DirectMappedConflictEvictsDirtyVictim)
{
    mem::DirectMappedCache<int> cache(4);
    EXPECT_FALSE(cache.insert(1, 100, true).has_value());
    EXPECT_TRUE(cache.contains(1));

    // 5 maps to the same line as 1 (mod 4): dirty victim pops out.
    auto victim = cache.insert(5, 500, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->flowId, 1u);
    EXPECT_EQ(victim->entry, 100);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(5));

    // Clean victims are dropped silently.
    EXPECT_FALSE(cache.insert(9, 900, true).has_value());
}

TEST(TcbCache, InvalidateReturnsContentAndDirtiness)
{
    mem::DirectMappedCache<int> cache(4);
    cache.insert(2, 20, false);
    cache.markDirty(2);
    auto out = cache.invalidate(2);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->first, 20);
    EXPECT_TRUE(out->second);
    EXPECT_FALSE(cache.invalidate(2).has_value());
}

} // namespace
} // namespace f4t
