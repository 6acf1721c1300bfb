/**
 * @file
 * The host interface (Sections 4.1.1 and 4.6): FtEngine's side of the
 * PCIe command protocol.
 *
 * Per-thread command queue pairs live in host hugepages. The host
 * rings a hardware doorbell (MMIO) after batching commands; the engine
 * DMA-reads the submission ring in batches, translates commands, and
 * hands them to the engine. Completions are staged per queue,
 * coalesced over a short window, and DMA-written together with the
 * software doorbell; a host-side waker is invoked so sleeping library
 * threads resume polling.
 *
 * The same module implements the payload DMA paths: the packet
 * generator fetches transmit payload from the host TCP data buffers
 * (host-to-device), and the RX parser deposits received payload
 * (device-to-host). Header-only experiments (Fig. 16) disable payload
 * DMA while keeping command traffic — exactly what the paper's custom
 * hardware command generator does.
 */

#ifndef F4T_CORE_HOST_INTERFACE_HH
#define F4T_CORE_HOST_INTERFACE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/packet_generator.hh"
#include "core/rx_parser.hh"
#include "host/command_queue.hh"
#include "host/host_memory.hh"
#include "host/pcie.hh"
#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"

namespace f4t::core
{

struct HostInterfaceConfig
{
    bool payloadDma = true;
};

class HostInterface : public sim::SimObject,
                      public PayloadSource,
                      public PayloadSink
{
  public:
    /** Translated host command, delivered to the engine. */
    using CommandHandler =
        std::function<void(const host::Command &, std::size_t queue)>;
    /** Completions arrived on a queue (wake a sleeping poller). */
    using CompletionWaker = std::function<void(std::size_t queue)>;

    /** Most commands one submission-ring DMA read fetches. */
    static constexpr std::size_t fetchBatchMax = 32;
    /** Completion coalescing window. */
    static constexpr sim::Tick completionFlushDelay =
        sim::nanosecondsToTicks(100);

    HostInterface(sim::Simulation &sim, std::string name,
                  host::PcieModel &pcie, const HostInterfaceConfig &config);

    void setCommandHandler(CommandHandler handler)
    {
        commandHandler_ = std::move(handler);
    }
    void setCompletionWaker(CompletionWaker waker)
    {
        waker_ = std::move(waker);
    }
    void setHostMemory(host::HostMemory *memory) { hostMemory_ = memory; }

    /** Register a per-thread queue pair; returns its index. */
    std::size_t attachQueue(host::QueuePair *pair);
    std::size_t queueCount() const { return queues_.size(); }
    host::QueuePair &queuePair(std::size_t index)
    {
        return *queues_.at(index).pair;
    }

    // --- host to engine ------------------------------------------------------
    /** The hardware doorbell was observed (after MMIO latency). */
    void onDoorbell(std::size_t queue_index);

    // --- engine to host ---------------------------------------------------------
    /** Flow to completion-queue assignment (RSS, Section 4.6). */
    void setFlowQueue(tcp::FlowId flow, std::size_t queue_index);
    std::size_t flowQueue(tcp::FlowId flow) const;

    /** Sequence bases for payload DMA offset conversion. */
    void setFlowSeqBase(tcp::FlowId flow, net::SeqNum tx_start,
                        net::SeqNum rx_start);
    void setRxStart(tcp::FlowId flow, net::SeqNum rx_start);

    /** Stage a completion command toward the flow's queue. */
    void postCompletion(tcp::FlowId flow, const host::Command &command);

    /** Forget a recycled flow. */
    void dropFlow(tcp::FlowId flow);

    // --- payload DMA ------------------------------------------------------------
    sim::Tick fetchPayload(tcp::FlowId flow, net::SeqNum seq,
                           std::span<std::uint8_t> out) override;
    void deliverPayload(tcp::FlowId flow, net::SeqNum seq,
                        std::span<const std::uint8_t> data) override;

    std::uint64_t commandsFetched() const { return commandsFetched_.value(); }
    std::uint64_t completionsPosted() const
    {
        return completionsPosted_.value();
    }

  private:
    struct FlowState
    {
        std::size_t queueIndex = 0;
        net::SeqNum txStart = 0;
        net::SeqNum rxStart = 0;
        bool rxStartKnown = false;
    };

    struct QueueState
    {
        host::QueuePair *pair = nullptr;
        bool fetchInProgress = false;
        std::vector<host::Command> stagedCompletions;
        bool flushScheduled = false;
    };

    void startFetch(std::size_t queue_index);
    void flushCompletions(std::size_t queue_index);
    FlowState &flowState(tcp::FlowId flow);

    host::PcieModel &pcie_;
    HostInterfaceConfig config_;
    host::HostMemory *hostMemory_ = nullptr;
    CommandHandler commandHandler_;
    CompletionWaker waker_;

    std::vector<QueueState> queues_;
    /** Dense per-flow table indexed by engine-allocated flow ID, grown
     *  on demand: the payload DMA paths hit it per packet. */
    std::vector<FlowState> flows_;

    sim::Counter commandsFetched_;
    sim::Counter completionsPosted_;
    sim::Counter doorbells_;
    sim::Counter payloadFetches_;
    sim::Counter payloadDeliveries_;
    sim::Counter cqOverflows_;
};

} // namespace f4t::core

#endif // F4T_CORE_HOST_INTERFACE_HH
