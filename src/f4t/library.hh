/**
 * @file
 * F4T library: the socket layer applications link against
 * (Sections 4.1.1 and 4.6).
 *
 * In the real system the library overrides the POSIX socket API via
 * LD_PRELOAD, turning system calls into plain function calls that talk
 * to FtEngine through per-thread command queues. The simulated library
 * keeps the same structure: one instance per application thread, bound
 * to one queue pair and one CPU core; all data moves through the
 * hugepage TCP buffers; only a handful of window pointers live in
 * software.
 *
 * The API is event-driven (callbacks for connected / readable /
 * writable / closed) because simulated applications are state
 * machines.
 */

#ifndef F4T_LIB_LIBRARY_HH
#define F4T_LIB_LIBRARY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "f4t/runtime.hh"

namespace f4t::lib
{

/** Socket descriptor (per library instance). */
using SockFd = int;
constexpr SockFd invalidFd = -1;

struct F4tCallbacks
{
    std::function<void(SockFd)> onConnected;
    std::function<void(SockFd, std::uint16_t port)> onAccepted;
    std::function<void(SockFd)> onWritable;
    std::function<void(SockFd, std::size_t readable)> onReadable;
    std::function<void(SockFd)> onPeerClosed;
    std::function<void(SockFd)> onClosed;
    std::function<void(SockFd)> onReset;
};

class F4tLibrary
{
  public:
    /**
     * @param runtime  shared userspace driver
     * @param queue    this thread's queue pair index
     * @param core     the CPU core this thread runs on
     */
    F4tLibrary(F4tRuntime &runtime, std::size_t queue,
               host::CpuCore &core);

    // The constructor registers a this-capturing completion handler
    // with the runtime, so a moved-from library would leave the
    // runtime calling into a dead object. Heap-allocate instead of
    // moving (see testbed_star.hh's makeClientApi).
    F4tLibrary(const F4tLibrary &) = delete;
    F4tLibrary &operator=(const F4tLibrary &) = delete;

    void setCallbacks(const F4tCallbacks &callbacks)
    {
        callbacks_ = callbacks;
    }

    host::CpuCore &core() { return core_; }

    // --- socket API -------------------------------------------------------
    /** listen() with SO_REUSEPORT: accepted flows reach this thread. */
    void listen(std::uint16_t port);

    /** Non-blocking connect(); onConnected fires when established. */
    SockFd connect(net::Ipv4Address ip, std::uint16_t port);

    /** Queue bytes; returns the count accepted (0 when full). */
    std::size_t send(SockFd fd, std::span<const std::uint8_t> data);

    /** Copy received bytes out; returns the count read. */
    std::size_t recv(SockFd fd, std::span<std::uint8_t> out);

    std::size_t readable(SockFd fd) const;
    std::size_t writable(SockFd fd) const;

    /** Graceful close. */
    void close(SockFd fd);

    bool established(SockFd fd) const;

    // --- statistics -----------------------------------------------------------
    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesReceived() const { return bytesReceived_; }

  private:
    struct Socket
    {
        bool open = false;
        tcp::FlowId flow = tcp::invalidFlowId;
        bool established = false;
        bool peerClosed = false;
        bool sendBlocked = false;
        /** 64-bit stream counters (offset 0 = first payload byte). */
        std::uint64_t ackedOffset = 0;
        std::uint64_t receivedOffset = 0;
        std::uint64_t consumedOffset = 0;
    };

    void handleCompletion(const host::Command &command);
    /** The open socket behind @p fd, or nullptr. */
    const Socket *find(SockFd fd) const;
    Socket &get(SockFd fd);
    const Socket &get(SockFd fd) const;
    /** Append @p sock at the next fd. */
    SockFd addSocket(const Socket &sock);
    /** Close @p fd's slot and trim the closed prefix of the table. */
    void dropSocket(SockFd fd);
    void bindFlow(tcp::FlowId flow, SockFd fd);
    host::FlowBuffers *buffers(const Socket &sock) const;
    std::uint64_t unwrap32(std::uint64_t reference,
                           std::uint32_t value) const;

    F4tRuntime &runtime_;
    std::size_t queue_;
    host::CpuCore &core_;
    F4tCallbacks callbacks_;

    /** Indexed by fd - firstFd_. fds are never reused, so a closed
     *  socket stays as a tombstone until every older fd has closed too;
     *  the table then spans the oldest open fd to the newest. */
    std::deque<Socket> sockets_;
    SockFd firstFd_ = 3;
    std::map<std::uint16_t, SockFd> pendingConnects_; ///< cookie -> fd
    /** Indexed by FlowId (grown on demand, so within the engine's
     *  maxFlows); invalidFd when no socket owns the flow. */
    std::vector<SockFd> byFlow_;

    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;
};

} // namespace f4t::lib

#endif // F4T_LIB_LIBRARY_HH
