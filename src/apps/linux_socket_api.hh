/**
 * @file
 * SocketApi adapter over the Linux baseline host (one per thread /
 * core).
 *
 * Readiness notifications cross the kernel-to-userspace boundary: the
 * adapter delays them by the host's wakeup jitter sample (Fig. 12) and
 * serializes them behind the owning core. An optional per-request
 * penalty models the low-locality slowdown of many tiny sockets
 * (Fig. 8b round-robin, Fig. 13 echo).
 */

#ifndef F4T_APPS_LINUX_SOCKET_API_HH
#define F4T_APPS_LINUX_SOCKET_API_HH

#include "apps/socket_api.hh"
#include "baseline/linux_host.hh"

namespace f4t::apps
{

class LinuxSocketApi : public SocketApi
{
  public:
    LinuxSocketApi(sim::Simulation &sim, baseline::LinuxHost &host,
                   std::size_t core_index,
                   double per_request_penalty = 0.0)
        : sim_(sim), host_(host), coreIndex_(core_index),
          penalty_(per_request_penalty)
    {}

    void
    setHandlers(const Handlers &handlers) override
    {
        handlers_ = handlers;
        tcp::SoftTcpCallbacks callbacks;
        callbacks.onConnected = [this](tcp::SoftConnId id) {
            deliver([this, id] {
                if (handlers_.onConnected)
                    handlers_.onConnected(static_cast<ConnId>(id));
            });
        };
        callbacks.onAccept = [this](tcp::SoftConnId id,
                                    std::uint16_t port) {
            deliver([this, id, port] {
                if (handlers_.onAccepted)
                    handlers_.onAccepted(static_cast<ConnId>(id), port);
            });
        };
        callbacks.onWritable = [this](tcp::SoftConnId id) {
            deliver([this, id] {
                if (handlers_.onWritable)
                    handlers_.onWritable(static_cast<ConnId>(id));
            });
        };
        callbacks.onReadable = [this](tcp::SoftConnId id, std::size_t) {
            deliver([this, id] {
                if (handlers_.onReadable) {
                    handlers_.onReadable(
                        static_cast<ConnId>(id),
                        stack().readable(id));
                }
            });
        };
        callbacks.onPeerClosed = [this](tcp::SoftConnId id) {
            deliver([this, id] {
                if (handlers_.onPeerClosed)
                    handlers_.onPeerClosed(static_cast<ConnId>(id));
            });
        };
        callbacks.onClosed = [this](tcp::SoftConnId id) {
            deliver([this, id] {
                if (handlers_.onClosed)
                    handlers_.onClosed(static_cast<ConnId>(id));
            });
        };
        callbacks.onReset = [this](tcp::SoftConnId id) {
            deliver([this, id] {
                if (handlers_.onReset)
                    handlers_.onReset(static_cast<ConnId>(id));
            });
        };
        stack().setCallbacks(callbacks);
    }

    void listen(std::uint16_t port) override { stack().listen(port); }

    ConnId
    connect(net::Ipv4Address ip, std::uint16_t port) override
    {
        return static_cast<ConnId>(stack().connect(ip, port));
    }

    std::size_t
    send(ConnId conn, std::span<const std::uint8_t> data) override
    {
        chargePenalty();
        return stack().send(static_cast<tcp::SoftConnId>(conn), data);
    }

    std::size_t
    recv(ConnId conn, std::span<std::uint8_t> out) override
    {
        chargePenalty();
        return stack().recv(static_cast<tcp::SoftConnId>(conn), out);
    }

    std::size_t
    readable(ConnId conn) override
    {
        return stack().readable(static_cast<tcp::SoftConnId>(conn));
    }

    std::size_t
    writable(ConnId conn) override
    {
        return stack().writable(static_cast<tcp::SoftConnId>(conn));
    }

    void
    close(ConnId conn) override
    {
        stack().close(static_cast<tcp::SoftConnId>(conn));
    }

    host::CpuCore &core() override { return host_.core(coreIndex_); }
    sim::Simulation &simulation() override { return sim_; }

    tcp::SoftTcpStack &stack() { return host_.stack(coreIndex_); }

  private:
    void
    chargePenalty()
    {
        if (penalty_ > 0) {
            core().charge(tcp::CostCategory::kernelOther, penalty_);
        }
    }

    /** Jittered, core-serialized upcall delivery. */
    void
    deliver(sim::SmallFunction fn)
    {
        sim::Tick delay = host_.jitterDelay();
        sim::Tick when = sim_.now() + delay;
        sim::Tick busy = core().busyUntil();
        if (busy > when)
            when = busy;
        // One epoll loop per thread: upcalls never overtake each other,
        // however the jitter samples land (an onReadable delivered
        // before its connection's onAccepted would strand the data).
        if (when < lastUpcallAt_)
            when = lastUpcallAt_;
        lastUpcallAt_ = when;
        sim_.queue().scheduleCallback(when, sim::prof::Cat::hostComplex,
                                      "linuxapi.deliver", std::move(fn));
    }

    sim::Simulation &sim_;
    baseline::LinuxHost &host_;
    std::size_t coreIndex_;
    double penalty_;
    sim::Tick lastUpcallAt_ = 0;
    Handlers handlers_;
};

} // namespace f4t::apps

#endif // F4T_APPS_LINUX_SOCKET_API_HH
