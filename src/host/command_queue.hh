/**
 * @file
 * Per-thread command queues between the F4T library and FtEngine
 * (Section 4.1.1): 1024-entry rings in hugepage memory, each entry a
 * 16 B command (8 B in the reduced-command experiment of Fig. 16a).
 *
 * The model keeps real Command structures in the ring and charges the
 * wire size separately through the PCIe model; occupancy and
 * full-queue backpressure behave exactly like the hardware rings.
 */

#ifndef F4T_HOST_COMMAND_QUEUE_HH
#define F4T_HOST_COMMAND_QUEUE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "tcp/tcb.hh"

namespace f4t::host
{

/** Command opcodes, both directions. */
enum class CmdOp : std::uint8_t
{
    // host -> engine
    listen,     ///< arg0 = local port, arg1 = queue id
    connect,    ///< arg0 = remote ip, arg1 = remote port << 16 | queue
    send,       ///< arg0 = new request pointer (absolute seq)
    recv,       ///< arg0 = new read pointer (absolute seq)
    close,      ///< graceful close
    // engine -> host
    connected,  ///< arg0 = initial tx pointer (iss + 1)
    accepted,   ///< arg0 = initial tx pointer, arg1 = local port
    acked,      ///< arg0 = new acknowledged pointer
    received,   ///< arg0 = new in-order receive pointer
    peerClosed,
    closed,
    reset,
};

const char *toString(CmdOp op);

/** Modelled wire size of one queue entry, what the PCIe model charges
 *  per command (not sizeof(Command)). */
constexpr std::size_t commandBytes = 16;

/** A queue entry. */
struct Command
{
    CmdOp op = CmdOp::send;
    tcp::FlowId flow = tcp::invalidFlowId;
    std::uint32_t arg0 = 0;
    std::uint32_t arg1 = 0;
};

/** One direction of a queue pair. */
class CommandQueue
{
  public:
    explicit CommandQueue(std::size_t depth = 1024) : depth_(depth) {}

    std::size_t depth() const { return depth_; }
    std::size_t size() const { return ring_.size(); }
    bool empty() const { return ring_.empty(); }
    bool full() const { return ring_.size() >= depth_; }

    /**
     * Enqueue a command. @return false when the ring was already at
     * its nominal depth — the caller treats that as backpressure (the
     * submission side retries; the completion side counts it). The
     * entry is still stored: the model is elastic so no command is
     * ever lost, only accounted as having overflowed.
     */
    bool
    push(const Command &cmd)
    {
        bool had_room = !full();
        ring_.push_back(cmd);
        return had_room;
    }

    Command
    pop()
    {
        f4t_assert(!ring_.empty(), "pop from empty command queue");
        Command cmd = ring_.front();
        ring_.pop_front();
        return cmd;
    }

    /** Pop up to @p max commands (batched DMA fetch). */
    std::vector<Command>
    popBatch(std::size_t max)
    {
        std::size_t n = ring_.size() < max ? ring_.size() : max;
        std::vector<Command> batch(ring_.begin(),
                                   ring_.begin() +
                                       static_cast<std::ptrdiff_t>(n));
        ring_.erase(ring_.begin(),
                    ring_.begin() + static_cast<std::ptrdiff_t>(n));
        return batch;
    }

  private:
    std::size_t depth_;
    std::deque<Command> ring_;
};

/**
 * A per-thread queue pair plus doorbell state: the submission queue
 * (host to engine) and completion queue (engine to host).
 */
struct QueuePair
{
    explicit QueuePair(std::size_t depth) : sq(depth), cq(depth) {}

    CommandQueue sq;
    CommandQueue cq;
    /** Host rang the hardware doorbell; engine fetch pending. */
    bool hwDoorbell = false;
    /** Engine wrote the software doorbell; completions pending. */
    bool swDoorbell = false;
};

} // namespace f4t::host

#endif // F4T_HOST_COMMAND_QUEUE_HH
