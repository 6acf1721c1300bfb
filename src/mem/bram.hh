/**
 * @file
 * Dual-port BRAM model.
 *
 * FPGA block RAM provides two independent ports, each able to read or
 * write one entry per cycle with single-cycle latency. The FPC's dual
 * memory (Section 4.2.3) schedules its four logical writers/readers
 * across the two ports of two BRAMs in a two-cycle pattern; this model
 * enforces the per-cycle port budget so that any schedule violating the
 * paper's timing is caught as a simulator bug.
 *
 * Functionally the array is a plain vector (BRAM reads of the cycle's
 * written value are forwarded, matching write-first mode); the port
 * accounting is the part that models hardware.
 */

#ifndef F4T_MEM_BRAM_HH
#define F4T_MEM_BRAM_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace f4t::mem
{

template <typename Entry>
class DualPortBram
{
  public:
    explicit DualPortBram(std::size_t entries) : data_(entries) {}

    std::size_t size() const { return data_.size(); }

    /**
     * Begin a new cycle: resets the port budget. The owner calls this
     * once per clock edge before issuing accesses.
     */
    void
    newCycle(sim::Cycles cycle)
    {
        if (cycle != currentCycle_) {
            currentCycle_ = cycle;
            portsUsed_ = 0;
        }
    }

    /** Read via one of the two ports. */
    const Entry &
    read(std::size_t index)
    {
        consumePort();
        return at(index);
    }

    /** Write via one of the two ports. */
    void
    write(std::size_t index, const Entry &value)
    {
        consumePort();
        at(index) = value;
    }

    /**
     * In-place read-modify-write: charges both a read and a write
     * port, exactly like a read() followed by a write() of the same
     * entry, but hands back a mutable reference so the caller skips
     * the two full-entry copies. For single-cycle RMW paths (the event
     * handler's duplicate-ACK accumulation).
     */
    Entry &
    readModifyWrite(std::size_t index)
    {
        consumePort();
        consumePort();
        return at(index);
    }

    /**
     * Zero-port peek for logic that observes the array combinationally
     * in the same cycle as a scheduled port access (e.g., the event
     * handler's read-modify path shares its port's read data). Use
     * sparingly and only where the hardware genuinely shares a port.
     */
    const Entry &peek(std::size_t index) const { return at(index); }

    /** Mutable combinational access, same caveat as peek(). */
    Entry &peekMutable(std::size_t index) { return at(index); }

  private:
    Entry &
    at(std::size_t index)
    {
        f4t_assert(index < data_.size(), "BRAM index %zu out of range %zu",
                   index, data_.size());
        return data_[index];
    }

    const Entry &
    at(std::size_t index) const
    {
        f4t_assert(index < data_.size(), "BRAM index %zu out of range %zu",
                   index, data_.size());
        return data_[index];
    }

    void
    consumePort()
    {
        f4t_assert(portsUsed_ < 2,
                   "BRAM port overcommit: 3rd access in cycle %llu",
                   static_cast<unsigned long long>(currentCycle_));
        ++portsUsed_;
    }

    std::vector<Entry> data_;
    sim::Cycles currentCycle_ = ~sim::Cycles{0};
    unsigned portsUsed_ = 0;
};

} // namespace f4t::mem

#endif // F4T_MEM_BRAM_HH
