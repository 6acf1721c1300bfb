/**
 * @file
 * Every calibrated host-CPU cost constant in one place.
 *
 * The reproduction cannot execute the Linux kernel, Nginx, wrk, or
 * iPerf, so per-operation CPU cycle budgets are calibrated once from
 * measured points the paper itself reports, then held fixed across all
 * experiments:
 *
 *  - Section 1: "CPUs require 104 cores to saturate a 100 Gbps network
 *    with 128 B requests and 13 cores with 1024 B requests"
 *       => Linux TCP send path ~ 2300 + 0.33 x bytes cycles/request at
 *          2.3 GHz (128 B -> ~2340 cycl -> 0.98 Mrps/core;
 *          1024 B -> ~2640 cycl -> 0.87 Mrps/core).
 *  - Fig. 8a: Linux bulk 128 B reaches 8.3 Gbps with 8 cores
 *       => consistent with the same per-request budget.
 *  - Fig. 8b: Linux round-robin over 16 flows/core reaches only
 *    0.126 Gbps with one core (~123 krps) => a large low-locality
 *    penalty (~16 kcycles/request) dominated by per-packet processing
 *    with no coalescing, socket switching, and cache misses.
 *  - Fig. 1a / Fig. 11: Nginx on Linux spends 26 % app / 37 % TCP /
 *    37 % other kernel => per-request budget split 2600 / 3700 / 3700.
 *  - Fig. 8a: F4T bulk reaches 44 Mrps on one core => ~52 cycles per
 *    send() through the F4T library (plain function call + amortized
 *    MMIO doorbell batching).
 *  - Fig. 11: F4T Nginx still spends sizable kernel time in
 *    vfs_read() => the filesystem budget stays on both stacks.
 *
 * All other behaviour (window dynamics, engine rates, link/PCIe/DRAM
 * ceilings) is modelled, not calibrated.
 */

#ifndef F4T_HOST_COST_MODEL_HH
#define F4T_HOST_COST_MODEL_HH

#include <cstdint>

namespace f4t::host
{

/** Host CPU frequency (dual-socket Xeon Gold 5118). */
constexpr double hostFrequencyHz = 2.3e9;

/** Linux TCP stack per-operation costs (cycles). */
struct LinuxCosts
{
    /** send()/write() syscall + TCP TX path, fixed part. */
    static constexpr double sendSyscall = 1150.0;
    /** TX per-byte cost (copy + checksum until offload). */
    static constexpr double sendPerByte = 0.33;
    /** recv()/read() syscall fixed part. */
    static constexpr double recvSyscall = 700.0;
    static constexpr double recvPerByte = 0.25;
    /** Per wire segment generated (qdisc + driver + TSO amortized). */
    static constexpr double txSegment = 400.0;
    /** Per wire segment received (softirq + TCP RX). */
    static constexpr double rxSegment = 800.0;
    static constexpr double rxPerByte = 0.1;
    /** Handshake path (accept/connect bookkeeping). */
    static constexpr double connectionSetup = 6000.0;
    /** Share of stack cycles booked to generic kernel overhead. */
    static constexpr double kernelShare = 0.35;

    /**
     * Low-locality penalty: extra cycles per request when an
     * application multiplexes many sockets with tiny requests
     * (Fig. 8b). Covers epoll round trips, socket lookup and cache
     * misses, and the loss of TSO/GRO batching.
     */
    static constexpr double smallFlowPenalty = 15500.0;
};

/** F4T library / runtime per-operation costs (cycles). */
struct F4tCosts
{
    /** A socket API call into the library (plain function call). */
    static constexpr double libraryCall = 12.0;
    /** Building one 16 B command in the command queue. */
    static constexpr double commandWrite = 8.0;
    /** One MMIO doorbell write (amortized over a batch). */
    static constexpr double doorbellMmio = 300.0;
    /** Commands per doorbell under MMIO batching. */
    static constexpr double doorbellBatch = 32.0;
    /** Polling one completion from the queue (cache hit via DDIO). */
    static constexpr double completionPoll = 25.0;
    /** Extra cost when servicing many flows (cache pressure). */
    static constexpr double flowSwitchPenalty = 15.0;
};

/** Nginx request budget (cycles per HTTP request, besides the stack). */
struct NginxCosts
{
    /** HTTP parse + response build + logging. */
    static constexpr double appProcessing = 2600.0;
    /** vfs_read() of the HTML file (page-cache hit). */
    static constexpr double filesystem = 950.0;
    /** Linux-specific: TCP stack share per request (Fig. 1a, 37 %). */
    static constexpr double linuxTcp = 3700.0;
    /** Linux-specific: other kernel work per request (37 %). */
    static constexpr double linuxKernelOther = 3700.0;
};

/** wrk-like load generator cost (cycles per request round trip). */
constexpr double wrkRequestCost = 600.0;

/**
 * Application work of the synthetic benchmark apps (cycles per
 * operation, besides the stack), charged alike on F4T and on Linux.
 */
struct AppCosts
{
    /** BulkSenderApp: build one request. */
    static constexpr double bulkRequest = 20.0;
    /** BulkSinkApp: consume one recv(). */
    static constexpr double bulkRecv = 20.0;
    /** RoundRobinSenderApp: pick the next flow and build a request. */
    static constexpr double roundRobinRequest = 30.0;
    /** EchoServerApp and EchoClientApp: handle one message. */
    static constexpr double echoMessage = 50.0;
    /** KvServerApp: parse and serve one GET, one SET. */
    static constexpr double kvGet = 450.0;
    static constexpr double kvSet = 600.0;
    /** OpenLoopClientApp and ChurnClientApp: build one KV request. */
    static constexpr double kvClientRequest = 250.0;
};

/**
 * Linux wakeup latency model (Fig. 12): response latency includes
 * scheduler/softirq jitter with a heavy tail; F4T's polling library
 * avoids it. Parameters of a log-normal + rare-spike mixture.
 */
struct LinuxLatencyJitter
{
    static constexpr double medianUs = 28.0;  ///< typical extra delay
    static constexpr double sigma = 0.55;     ///< log-normal shape
    static constexpr double spikeProbability = 0.015;
    static constexpr double spikeMinUs = 1500.0;
    static constexpr double spikeMaxUs = 4000.0;
};

/** F4T software wake latency when the library slept (Section 4.6). */
constexpr double f4tWakeLatencyUs = 2.0;

} // namespace f4t::host

#endif // F4T_HOST_COST_MODEL_HH
