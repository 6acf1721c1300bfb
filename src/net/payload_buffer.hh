/**
 * @file
 * PayloadBuffer: pooled byte storage for packet payloads.
 *
 * Every data-bearing simulated packet used to carry its payload in a
 * std::vector constructed at the producer (packet generator, software
 * TCP) and freed wherever the Packet died — typically inside a link
 * delivery callback. At bulk-transfer rates that is two allocator
 * round-trips per packet on the hottest path in the simulator.
 *
 * A PayloadBuffer instead borrows a byte vector from a process-wide
 * recycling pool and returns it on destruction; the vector keeps its
 * capacity between uses, so steady-state packet traffic performs no
 * allocation at all once the pool has warmed to the working set of
 * in-flight packets. The interface mirrors the vector subset the
 * simulator uses, plus implicit std::span conversions so existing
 * span-based consumers (checksums, byte rings, DMA models) are
 * untouched.
 *
 * An empty buffer owns no pooled storage: control packets (pure ACKs,
 * SYN/FIN) never touch the pool.
 *
 * The pool is per-thread, so simulations run on different threads
 * (as some tests do) never share a free list and the hot
 * acquire/release path takes no lock. A simulation's packets are
 * acquired and released on the one thread that runs it.
 */

#ifndef F4T_NET_PAYLOAD_BUFFER_HH
#define F4T_NET_PAYLOAD_BUFFER_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "sim/check.hh"

namespace f4t::net
{

/** The recycling pool behind PayloadBuffer (see file comment). */
class PayloadBufferPool
{
  public:
    static PayloadBufferPool &instance();

    ~PayloadBufferPool();

    std::vector<std::uint8_t> *acquire();
    void release(std::vector<std::uint8_t> *bytes);

    // --- introspection (tests, perf harnesses) --------------------------

    /** Buffers this pool ever constructed (its high-water mark). */
    std::size_t allocated() const { return allocated_; }
    /** Buffers parked and ready for reuse. */
    std::size_t freeCount() const { return free_.size(); }
    /** Constructed minus parked: the live-buffer count. */
    std::size_t outstanding() const { return allocated() - freeCount(); }

  private:
    PayloadBufferPool() = default;

    std::size_t allocated_ = 0;
    std::vector<std::vector<std::uint8_t> *> free_;
};

class PayloadBuffer
{
  public:
    PayloadBuffer() = default;

    explicit PayloadBuffer(std::size_t size) { resize(size); }

    PayloadBuffer(std::initializer_list<std::uint8_t> init)
    {
        assign(init.begin(), init.size());
    }

    /** Converting constructor: copy a plain byte vector's contents. */
    PayloadBuffer(const std::vector<std::uint8_t> &v)
    {
        assign(v.data(), v.size());
    }

    /**
     * Converting constructor from an expiring vector: the pooled
     * buffer swaps with it, donating the vector's capacity to the
     * pool rather than copying.
     */
    PayloadBuffer(std::vector<std::uint8_t> &&v)
    {
        if (!v.empty()) {
            bytes_ = PayloadBufferPool::instance().acquire();
            bytes_->swap(v);
        }
    }

    PayloadBuffer(const PayloadBuffer &other)
    {
        notePayloadCopy(other.size());
        assign(other.data(), other.size());
    }

    PayloadBuffer(PayloadBuffer &&other) noexcept : bytes_(other.bytes_)
    {
        other.bytes_ = nullptr;
    }

    PayloadBuffer &
    operator=(const PayloadBuffer &other)
    {
        if (this != &other) {
            notePayloadCopy(other.size());
            assign(other.data(), other.size());
        }
        return *this;
    }

    PayloadBuffer &
    operator=(PayloadBuffer &&other) noexcept
    {
        if (this != &other) {
            releaseStorage();
            bytes_ = other.bytes_;
            other.bytes_ = nullptr;
        }
        return *this;
    }

    PayloadBuffer &
    operator=(std::initializer_list<std::uint8_t> init)
    {
        assign(init.begin(), init.size());
        return *this;
    }

    ~PayloadBuffer() { releaseStorage(); }

    std::size_t size() const { return bytes_ != nullptr ? bytes_->size() : 0; }
    bool empty() const { return size() == 0; }

    std::uint8_t *data() { return bytes_ != nullptr ? bytes_->data() : nullptr; }
    const std::uint8_t *
    data() const
    {
        return bytes_ != nullptr ? bytes_->data() : nullptr;
    }

    std::uint8_t *begin() { return data(); }
    std::uint8_t *end() { return data() + size(); }
    const std::uint8_t *begin() const { return data(); }
    const std::uint8_t *end() const { return data() + size(); }

    std::uint8_t &operator[](std::size_t i) { return (*bytes_)[i]; }
    const std::uint8_t &operator[](std::size_t i) const { return (*bytes_)[i]; }

    void
    resize(std::size_t size)
    {
        if (bytes_ == nullptr) {
            if (size == 0)
                return;
            bytes_ = PayloadBufferPool::instance().acquire();
        }
        bytes_->resize(size);
    }

    void
    clear()
    {
        if (bytes_ != nullptr)
            bytes_->clear();
    }

    void
    assign(const std::uint8_t *src, std::size_t size)
    {
        resize(size);
        if (size > 0)
            std::copy(src, src + size, bytes_->data());
    }

    // No explicit span conversion operators: begin()/end() return raw
    // pointers, so PayloadBuffer models contiguous_range + sized_range
    // and std::span's range constructor covers every span-taking call
    // site. (An operator span alongside that constructor would make the
    // two conversion paths ambiguous.)

    friend bool
    operator==(const PayloadBuffer &a, const PayloadBuffer &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    // --- copy accounting (checks builds only) ---------------------------
    //
    // A packet should move through the pipeline by transferring its
    // pooled buffer, never by duplicating bytes. The counter makes the
    // claim testable: the clean bulk-transfer regression test asserts
    // it stays at zero; fault injection (packet duplication) and
    // deliberate harness copies are the only legitimate increments.

    /** Byte-copying PayloadBuffer copies since the last reset.
     *  Always 0 in checks-off builds. */
    static std::uint64_t copiesObserved() { return copyCount_; }

    static void resetCopyCount() { copyCount_ = 0; }

  private:
    static void
    notePayloadCopy(std::size_t size)
    {
        if constexpr (sim::checksEnabled) {
            if (size > 0)
                ++copyCount_;
        }
    }

    /** Process-wide and unsynchronized: only one thread at a time may
     *  run simulations that copy payloads. */
    static inline std::uint64_t copyCount_ = 0;

    void
    releaseStorage()
    {
        if (bytes_ != nullptr) {
            PayloadBufferPool::instance().release(bytes_);
            bytes_ = nullptr;
        }
    }

    std::vector<std::uint8_t> *bytes_ = nullptr;
};

} // namespace f4t::net

#endif // F4T_NET_PAYLOAD_BUFFER_HH
