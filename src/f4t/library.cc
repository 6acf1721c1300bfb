#include "library.hh"

#include "sim/profile_scope.hh"

#include <utility>

namespace f4t::lib
{

namespace
{

/** Call an application callback, if set, charging it to Cat::app. */
template <typename Callback, typename... Args>
void
upcall(const Callback &callback, Args... args)
{
    if (!callback)
        return;
    sim::prof::Scope profile_scope(sim::prof::Cat::app);
    callback(args...);
}

} // namespace

F4tLibrary::F4tLibrary(F4tRuntime &runtime, std::size_t queue,
                       host::CpuCore &core)
    : runtime_(runtime), queue_(queue), core_(core)
{
    runtime_.setCompletionHandler(
        queue_,
        [this](const host::Command &command) { handleCompletion(command); },
        &core_);
}

const F4tLibrary::Socket *
F4tLibrary::find(SockFd fd) const
{
    if (fd < firstFd_)
        return nullptr;
    auto index = static_cast<std::size_t>(fd - firstFd_);
    if (index >= sockets_.size() || !sockets_[index].open)
        return nullptr;
    return &sockets_[index];
}

F4tLibrary::Socket &
F4tLibrary::get(SockFd fd)
{
    return const_cast<Socket &>(std::as_const(*this).get(fd));
}

const F4tLibrary::Socket &
F4tLibrary::get(SockFd fd) const
{
    const Socket *sock = find(fd);
    f4t_assert(sock != nullptr, "unknown socket fd %d", fd);
    return *sock;
}

SockFd
F4tLibrary::addSocket(const Socket &sock)
{
    SockFd fd = firstFd_ + static_cast<SockFd>(sockets_.size());
    sockets_.push_back(sock);
    sockets_.back().open = true;
    return fd;
}

void
F4tLibrary::dropSocket(SockFd fd)
{
    get(fd).open = false;
    while (!sockets_.empty() && !sockets_.front().open) {
        sockets_.pop_front();
        ++firstFd_;
    }
}

void
F4tLibrary::bindFlow(tcp::FlowId flow, SockFd fd)
{
    if (flow >= byFlow_.size())
        byFlow_.resize(flow + 1, invalidFd);
    byFlow_[flow] = fd;
}

host::FlowBuffers *
F4tLibrary::buffers(const Socket &sock) const
{
    if (sock.flow == tcp::invalidFlowId)
        return nullptr;
    return runtime_.memory().find(sock.flow);
}

std::uint64_t
F4tLibrary::unwrap32(std::uint64_t reference, std::uint32_t value) const
{
    std::int32_t delta = static_cast<std::int32_t>(
        value - static_cast<std::uint32_t>(reference));
    return reference + delta;
}

void
F4tLibrary::listen(std::uint16_t port)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    host::Command cmd;
    cmd.op = host::CmdOp::listen;
    cmd.arg0 = port;
    cmd.arg1 = static_cast<std::uint32_t>(queue_);
    runtime_.submitCommand(queue_, cmd, core_);
}

SockFd
F4tLibrary::connect(net::Ipv4Address ip, std::uint16_t port)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    SockFd fd = addSocket(Socket{});
    std::uint16_t cookie = static_cast<std::uint16_t>(fd);
    pendingConnects_[cookie] = fd;

    host::Command cmd;
    cmd.op = host::CmdOp::connect;
    cmd.arg0 = ip.value;
    cmd.arg1 = (static_cast<std::uint32_t>(port) << 16) | cookie;
    runtime_.submitCommand(queue_, cmd, core_);
    return fd;
}

std::size_t
F4tLibrary::send(SockFd fd, std::span<const std::uint8_t> data)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    Socket &sock = get(fd);
    if (!sock.established)
        return 0;
    host::FlowBuffers *fb = buffers(sock);
    f4t_assert(fb != nullptr, "established socket without buffers");

    std::size_t accepted = fb->tx.append(data);
    if (accepted < data.size())
        sock.sendBlocked = true;
    if (accepted == 0)
        return 0;
    bytesSent_ += accepted;

    host::Command cmd;
    cmd.op = host::CmdOp::send;
    cmd.flow = sock.flow;
    cmd.arg0 = static_cast<std::uint32_t>(fb->tx.end());
    // The moment the application handed us the data: a request whose
    // target is the cumulative stream offset of its last byte.
    runtime_.probe(sim::fr::Kind::libSend, sock.flow, fb->tx.end());
    runtime_.submitCommand(queue_, cmd, core_);
    return accepted;
}

std::size_t
F4tLibrary::recv(SockFd fd, std::span<std::uint8_t> out)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    Socket &sock = get(fd);
    host::FlowBuffers *fb = buffers(sock);
    if (!fb)
        return 0;

    std::uint64_t avail = sock.receivedOffset - sock.consumedOffset;
    std::size_t n = out.size() < avail ? out.size()
                                       : static_cast<std::size_t>(avail);
    if (n == 0)
        return 0;

    fb->rx.copyOut(sock.consumedOffset, out.subspan(0, n));
    fb->rx.release(n);
    sock.consumedOffset += n;
    bytesReceived_ += n;

    // Tell the hardware the read pointer moved (opens the window).
    host::Command cmd;
    cmd.op = host::CmdOp::recv;
    cmd.flow = sock.flow;
    cmd.arg0 = static_cast<std::uint32_t>(sock.consumedOffset);
    runtime_.submitCommand(queue_, cmd, core_);
    return n;
}

std::size_t
F4tLibrary::readable(SockFd fd) const
{
    const Socket &sock = get(fd);
    return static_cast<std::size_t>(sock.receivedOffset -
                                    sock.consumedOffset);
}

std::size_t
F4tLibrary::writable(SockFd fd) const
{
    const Socket &sock = get(fd);
    const host::FlowBuffers *fb =
        const_cast<F4tLibrary *>(this)->buffers(sock);
    return fb ? fb->tx.freeSpace() : 0;
}

bool
F4tLibrary::established(SockFd fd) const
{
    const Socket *sock = find(fd);
    return sock != nullptr && sock->established;
}

void
F4tLibrary::close(SockFd fd)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    Socket &sock = get(fd);
    if (sock.flow == tcp::invalidFlowId) {
        dropSocket(fd);
        return;
    }
    host::Command cmd;
    cmd.op = host::CmdOp::close;
    cmd.flow = sock.flow;
    runtime_.submitCommand(queue_, cmd, core_);
}

void
F4tLibrary::handleCompletion(const host::Command &command)
{
    switch (command.op) {
      case host::CmdOp::connected: {
        std::uint16_t cookie = static_cast<std::uint16_t>(command.arg1);
        auto it = pendingConnects_.find(cookie);
        if (it == pendingConnects_.end())
            return;
        SockFd fd = it->second;
        pendingConnects_.erase(it);
        Socket &sock = get(fd);
        sock.flow = command.flow;
        sock.established = true;
        bindFlow(command.flow, fd);
        runtime_.memory().ensure(command.flow);
        upcall(callbacks_.onConnected, fd);
        return;
      }
      case host::CmdOp::accepted: {
        Socket sock;
        sock.flow = command.flow;
        sock.established = true;
        SockFd fd = addSocket(sock);
        bindFlow(command.flow, fd);
        runtime_.memory().ensure(command.flow);
        upcall(callbacks_.onAccepted, fd,
               static_cast<std::uint16_t>(command.arg1));
        return;
      }
      default:
        break;
    }

    SockFd fd = command.flow < byFlow_.size() ? byFlow_[command.flow]
                                               : invalidFd;
    if (fd == invalidFd)
        return; // late completion for a closed socket
    Socket &sock = get(fd);

    switch (command.op) {
      case host::CmdOp::acked: {
        host::FlowBuffers *fb = buffers(sock);
        if (!fb)
            return;
        std::uint64_t acked = unwrap32(sock.ackedOffset, command.arg0);
        if (acked > sock.ackedOffset) {
            std::uint64_t release = acked - sock.ackedOffset;
            std::uint64_t retained = fb->tx.size();
            if (release > retained)
                release = retained;
            fb->tx.release(static_cast<std::size_t>(release));
            sock.ackedOffset = acked;
            if (sock.sendBlocked && fb->tx.freeSpace() > 0) {
                sock.sendBlocked = false;
                upcall(callbacks_.onWritable, fd);
            }
        }
        return;
      }
      case host::CmdOp::received: {
        std::uint64_t boundary =
            unwrap32(sock.receivedOffset, command.arg0);
        if (boundary > sock.receivedOffset) {
            sock.receivedOffset = boundary;
            upcall(callbacks_.onReadable, fd, readable(fd));
        }
        runtime_.probe(sim::fr::Kind::libDeliver, command.flow,
                       command.arg0);
        return;
      }
      case host::CmdOp::peerClosed:
        sock.peerClosed = true;
        upcall(callbacks_.onPeerClosed, fd);
        return;
      case host::CmdOp::closed:
      case host::CmdOp::reset: {
        bool reset = command.op == host::CmdOp::reset;
        tcp::FlowId flow = sock.flow;
        byFlow_[flow] = invalidFd;
        dropSocket(fd);
        runtime_.releaseFlowMemory(flow);
        upcall(reset ? callbacks_.onReset : callbacks_.onClosed, fd);
        return;
      }
      default:
        return;
    }
}

} // namespace f4t::lib
