#include "payload_buffer.hh"

namespace f4t::net
{

PayloadBufferPool &
PayloadBufferPool::instance()
{
    // One pool per thread, so simulations on different threads never
    // share a free list. Each buffer is its own heap allocation; a
    // thread exiting frees only the buffers parked in its pool.
    static thread_local PayloadBufferPool pool;
    return pool;
}

PayloadBufferPool::~PayloadBufferPool()
{
    for (std::vector<std::uint8_t> *bytes : free_)
        delete bytes;
}

std::vector<std::uint8_t> *
PayloadBufferPool::acquire()
{
    if (!free_.empty()) {
        std::vector<std::uint8_t> *bytes = free_.back();
        free_.pop_back();
        return bytes;
    }
    ++allocated_;
    return new std::vector<std::uint8_t>;
}

void
PayloadBufferPool::release(std::vector<std::uint8_t> *bytes)
{
    // Keep the capacity: the next acquire() inherits it, which is the
    // entire point of the pool.
    bytes->clear();
    free_.push_back(bytes);
}

} // namespace f4t::net
