#include "host_interface.hh"

namespace f4t::core
{

HostInterface::HostInterface(sim::Simulation &sim, std::string name,
                             host::PcieModel &pcie,
                             const HostInterfaceConfig &config)
    : SimObject(sim, std::move(name)), pcie_(pcie), config_(config),
      commandsFetched_(sim.stats(), statName("commandsFetched"),
                       "commands DMA-read from submission queues"),
      completionsPosted_(sim.stats(), statName("completionsPosted"),
                         "completions DMA-written to completion queues"),
      doorbells_(sim.stats(), statName("doorbells"),
                 "hardware doorbells observed"),
      payloadFetches_(sim.stats(), statName("payloadFetches"),
                      "transmit payload DMA reads"),
      payloadDeliveries_(sim.stats(), statName("payloadDeliveries"),
                         "receive payload DMA writes"),
      cqOverflows_(sim.stats(), statName("cqOverflows"),
                   "completions posted past the nominal ring depth")
{}

std::size_t
HostInterface::attachQueue(host::QueuePair *pair)
{
    queues_.push_back(QueueState{pair, false, {}, false});
    return queues_.size() - 1;
}

HostInterface::FlowState &
HostInterface::flowState(tcp::FlowId flow)
{
    if (flow >= flows_.size())
        flows_.resize(flow + 1);
    return flows_[flow];
}

void
HostInterface::setFlowQueue(tcp::FlowId flow, std::size_t queue_index)
{
    f4t_assert(queue_index < queues_.size(), "queue %zu out of range",
               queue_index);
    flowState(flow).queueIndex = queue_index;
}

std::size_t
HostInterface::flowQueue(tcp::FlowId flow) const
{
    return flow < flows_.size() ? flows_[flow].queueIndex : 0;
}

void
HostInterface::setFlowSeqBase(tcp::FlowId flow, net::SeqNum tx_start,
                              net::SeqNum rx_start)
{
    FlowState &state = flowState(flow);
    state.txStart = tx_start;
    state.rxStart = rx_start;
    state.rxStartKnown = true;
}

void
HostInterface::setRxStart(tcp::FlowId flow, net::SeqNum rx_start)
{
    FlowState &state = flowState(flow);
    state.rxStart = rx_start;
    state.rxStartKnown = true;
}

void
HostInterface::dropFlow(tcp::FlowId flow)
{
    if (flow < flows_.size())
        flows_[flow] = FlowState{};
}

void
HostInterface::onDoorbell(std::size_t queue_index)
{
    f4t_assert(queue_index < queues_.size(), "doorbell for queue %zu",
               queue_index);
    ++doorbells_;
    QueueState &state = queues_[queue_index];
    state.pair->hwDoorbell = true;
    if (!state.fetchInProgress)
        startFetch(queue_index);
}

void
HostInterface::startFetch(std::size_t queue_index)
{
    QueueState &state = queues_[queue_index];
    std::size_t pending = state.pair->sq.size();
    if (pending == 0) {
        state.fetchInProgress = false;
        state.pair->hwDoorbell = false;
        return;
    }
    std::size_t batch = pending < fetchBatchMax ? pending : fetchBatchMax;
    state.fetchInProgress = true;

    sim::Tick fetch_start = now();
    pcie_.hostToDevice(batch * host::commandBytes,
                       [this, queue_index, batch, fetch_start] {
                           QueueState &qs = queues_[queue_index];
                           auto commands = qs.pair->sq.popBatch(batch);
                           commandsFetched_ += commands.size();
                           for (const host::Command &cmd : commands) {
                               if (cmd.op == host::CmdOp::send)
                                   probe(sim::fr::Kind::hifFetch, cmd.flow,
                                         cmd.arg0, fetch_start);
                               if (commandHandler_)
                                   commandHandler_(cmd, queue_index);
                           }
                           startFetch(queue_index);
                       });
}

void
HostInterface::postCompletion(tcp::FlowId flow, const host::Command &command)
{
    std::size_t queue_index = flowQueue(flow);
    QueueState &state = queues_.at(queue_index);
    state.stagedCompletions.push_back(command);
    if (state.flushScheduled)
        return;
    state.flushScheduled = true;
    queue().scheduleCallback(now() + completionFlushDelay,
                             sim::prof::Cat::hostComplex,
                             "hostif.flushCompletions", [this, queue_index] {
                                 flushCompletions(queue_index);
                             });
}

void
HostInterface::flushCompletions(std::size_t queue_index)
{
    QueueState &state = queues_[queue_index];
    state.flushScheduled = false;
    if (state.stagedCompletions.empty())
        return;

    std::vector<host::Command> batch;
    batch.swap(state.stagedCompletions);
    completionsPosted_ += batch.size();
    for (const host::Command &cmd : batch) {
        if (cmd.op == host::CmdOp::received)
            probe(sim::fr::Kind::hifFlush, cmd.flow, cmd.arg0);
    }

    pcie_.deviceToHost(
        batch.size() * host::commandBytes,
        [this, queue_index, batch = std::move(batch)] {
            QueueState &qs = queues_[queue_index];
            for (const host::Command &cmd : batch) {
                if (!qs.pair->cq.push(cmd)) {
                    // A real device would backpressure its completion
                    // writes; the model counts the overflow (the ring
                    // is allowed to stretch so no completion is lost).
                    ++cqOverflows_;
                    if (cqOverflows_.value() == 1) {
                        f4t_warn("%s: completion queue %zu overflow "
                                 "(slow host poller; counted in "
                                 "cqOverflows)",
                                 name().c_str(), queue_index);
                    }
                }
            }
            qs.pair->swDoorbell = true;
            if (waker_)
                waker_(queue_index);
        });
}

sim::Tick
HostInterface::fetchPayload(tcp::FlowId flow, net::SeqNum seq,
                            std::span<std::uint8_t> out)
{
    ++payloadFetches_;
    // Header-only experiments (payloadDma off) skip the PCIe charge
    // but stay functional when host buffers exist; synthetic flows
    // without buffers send zero payload bytes.
    host::FlowBuffers *buffers =
        hostMemory_ ? hostMemory_->find(flow) : nullptr;
    if (!buffers) {
        f4t_assert(!config_.payloadDma, "payload fetch for flow %u "
                   "without host buffers", flow);
        return now();
    }
    const FlowState &state = flowState(flow);

    // Unwrap the wire sequence into a 64-bit stream offset near the
    // ring's retained range.
    net::SeqNum base_wire =
        state.txStart + static_cast<net::SeqNum>(buffers->tx.base());
    std::int32_t delta = net::seqDiff(seq, base_wire);
    std::uint64_t offset = buffers->tx.base() + delta;
    buffers->tx.copyOut(offset, out);

    return config_.payloadDma ? pcie_.hostToDevice(out.size()) : now();
}

void
HostInterface::deliverPayload(tcp::FlowId flow, net::SeqNum seq,
                              std::span<const std::uint8_t> data)
{
    ++payloadDeliveries_;
    if (!hostMemory_)
        return;

    host::FlowBuffers &buffers = hostMemory_->ensure(flow);
    const FlowState &state = flowState(flow);
    f4t_assert(state.rxStartKnown, "payload delivery for flow %u before "
               "its SYN was parsed", flow);

    net::SeqNum base_wire =
        state.rxStart + static_cast<net::SeqNum>(buffers.rx.base());
    std::int32_t delta = net::seqDiff(seq, base_wire);
    std::uint64_t offset = buffers.rx.base() + delta;
    buffers.rx.writeAt(offset, data);
    if (offset + data.size() > buffers.rxWritten)
        buffers.rxWritten = offset + data.size();

    if (config_.payloadDma)
        pcie_.deviceToHost(data.size());
}

} // namespace f4t::core
