/**
 * @file
 * Host-side TCP data buffers living in hugepages (Section 4.1.1).
 *
 * The F4T library writes transmit data here and reads receive data
 * from here; FtEngine's packet generator and RX parser DMA the same
 * memory over PCIe. Buffers are addressed by 64-bit stream offsets
 * (offset 0 = first payload byte after the SYN); the engine converts
 * between wire sequence numbers and offsets.
 */

#ifndef F4T_HOST_HOST_MEMORY_HH
#define F4T_HOST_HOST_MEMORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/byte_ring.hh"
#include "tcp/tcb.hh"

namespace f4t::host
{

struct FlowBuffers
{
    FlowBuffers(std::size_t tx_bytes, std::size_t rx_bytes)
        : tx(tx_bytes), rx(rx_bytes)
    {}

    net::ByteRing tx;
    net::ByteRing rx;
    /** Highest receive offset the engine has written so far. */
    std::uint64_t rxWritten = 0;
};

class HostMemory
{
  public:
    explicit HostMemory(std::size_t buffer_bytes = 512 * 1024)
        : bufferBytes_(buffer_bytes)
    {}

    FlowBuffers &
    ensure(tcp::FlowId flow)
    {
        if (flow >= flows_.size())
            flows_.resize(flow + 1);
        std::unique_ptr<FlowBuffers> &slot = flows_[flow];
        if (!slot) {
            slot = std::make_unique<FlowBuffers>(bufferBytes_, bufferBytes_);
            ++flowCount_;
        }
        return *slot;
    }

    FlowBuffers *
    find(tcp::FlowId flow)
    {
        return flow < flows_.size() ? flows_[flow].get() : nullptr;
    }

    void
    release(tcp::FlowId flow)
    {
        if (flow < flows_.size() && flows_[flow]) {
            flows_[flow].reset();
            --flowCount_;
        }
    }

    std::size_t flowCount() const { return flowCount_; }

  private:
    std::size_t bufferBytes_;
    /** Indexed by FlowId and grown on demand: engine-allocated IDs are
     *  small and reused, so the table stays within the engine's
     *  maxFlows. */
    std::vector<std::unique_ptr<FlowBuffers>> flows_;
    std::size_t flowCount_ = 0;
};

} // namespace f4t::host

#endif // F4T_HOST_HOST_MEMORY_HH
