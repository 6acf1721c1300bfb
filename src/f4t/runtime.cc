#include "runtime.hh"

namespace f4t::lib
{

F4tRuntime::F4tRuntime(sim::Simulation &sim, std::string name,
                       core::FtEngine &engine, std::size_t num_queues)
    : SimObject(sim, std::move(name)), engine_(engine),
      memory_(engine.config().tcpBufferBytes), clients_(num_queues),
      commandsSubmitted_(sim.stats(), statName("commandsSubmitted"),
                         "commands submitted to FtEngine"),
      completionsDelivered_(sim.stats(), statName("completionsDelivered"),
                            "completions delivered to libraries")
{
    core::HostInterface &host_if = engine_.hostInterface();
    host_if.setHostMemory(&memory_);
    for (std::size_t i = 0; i < num_queues; ++i) {
        queues_.push_back(std::make_unique<host::QueuePair>(1024));
        std::size_t index = host_if.attachQueue(queues_.back().get());
        f4t_assert(index == i, "queue index mismatch");
    }
    host_if.setCompletionWaker(
        [this](std::size_t q) { onCompletionsArrived(q); });
}

void
F4tRuntime::submitCommand(std::size_t q, const host::Command &command,
                          host::CpuCore &core)
{
    core.charge(tcp::CostCategory::f4tLibrary,
                host::F4tCosts::commandWrite +
                    host::F4tCosts::doorbellMmio /
                        host::F4tCosts::doorbellBatch);
    ++commandsSubmitted_;

    host::QueuePair &pair = *queues_.at(q);
    if (!pair.sq.push(command)) {
        // The ring was past its nominal depth: a real library spins
        // until the engine drains. The elastic ring keeps the command;
        // model the spin as a microsecond of stall on the core.
        core.charge(tcp::CostCategory::f4tLibrary, 2300.0);
    }

    // One MMIO doorbell covers every command pushed before it lands:
    // the engine drains the SQ until empty once woken, so back-to-back
    // submits while a doorbell is in flight need no further MMIO. The
    // flag clears before onDoorbell reads the ring, so a push can
    // never slip between the drain and the re-arm unseen.
    QueueClient &client = clients_.at(q);
    if (client.doorbellArmed)
        return;
    client.doorbellArmed = true;
    engine_.pcie().mmioDoorbell([this, q] {
        clients_.at(q).doorbellArmed = false;
        engine_.hostInterface().onDoorbell(q);
    });
}

void
F4tRuntime::setCompletionHandler(std::size_t q, CompletionHandler handler,
                                 host::CpuCore *core)
{
    QueueClient &client = clients_.at(q);
    client.handler = std::move(handler);
    client.core = core;
}

void
F4tRuntime::onCompletionsArrived(std::size_t q)
{
    QueueClient &client = clients_.at(q);
    if (!client.handler || client.pollScheduled)
        return;
    client.pollScheduled = true;

    // The library thread either polls (cheap) or was asleep and is
    // woken by the runtime (Section 4.6); the wake adds latency.
    sim::Tick wake = now();
    if (client.core && client.core->idle())
        wake += sim::microsecondsToTicks(host::f4tWakeLatencyUs);
    SimObject::queue().scheduleCallback(wake, sim::prof::Cat::hostComplex,
                                        "runtime.poll",
                                        [this, q] { pollQueue(q); });
}

void
F4tRuntime::pollQueue(std::size_t q)
{
    QueueClient &client = clients_.at(q);
    client.pollScheduled = false;
    host::QueuePair &pair = *queues_.at(q);
    pair.swDoorbell = false;

    while (!pair.cq.empty()) {
        // The library thread is a real thread: completions (and the
        // application work their handlers trigger) execute only as
        // fast as the core runs. When earlier charged work has pushed
        // the busy horizon past now, resume the drain there — this is
        // what makes a saturated core the throughput bottleneck.
        if (client.core && client.core->busyUntil() > now()) {
            client.pollScheduled = true;
            SimObject::queue().scheduleCallback(
                client.core->busyUntil(), sim::prof::Cat::hostComplex,
                "runtime.poll", [this, q] { pollQueue(q); });
            return;
        }
        host::Command command = pair.cq.pop();
        if (client.core) {
            client.core->charge(tcp::CostCategory::f4tLibrary,
                                host::F4tCosts::completionPoll);
        }
        ++completionsDelivered_;
        client.handler(command);
    }
}

} // namespace f4t::lib
