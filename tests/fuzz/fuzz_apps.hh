/**
 * @file
 * Fuzz workload applications: a request/response client and server
 * written against SocketApi (so they run unchanged on the F4T stack
 * and the Linux baseline) with every application byte double-entry
 * bookkept in a StreamOracle.
 *
 * Protocol: the client opens N staggered connections. On each it sends
 * a 12-byte header (logical connection id, request size, response
 * size — the server learns the logical id this way, independent of
 * accept order, which differs between worlds) followed by the request
 * payload. The server drains the request, then sends the response; the
 * client drains the response and closes; the server closes once its
 * peer has. Every payload byte is a pure function of (stream, offset),
 * so both ends know exactly what to expect without sharing state.
 */

#ifndef F4T_TESTS_FUZZ_APPS_HH
#define F4T_TESTS_FUZZ_APPS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "apps/socket_api.hh"
#include "apps/testbed.hh"
#include "net/stream_oracle.hh"

#include "fuzz_scenario.hh"

namespace f4t::fuzz
{

constexpr std::size_t headerBytes = 12;
constexpr std::uint16_t fuzzPort = 7001;

/** Oracle stream ids: one per direction of each logical connection. */
inline net::StreamOracle::StreamId
upStream(std::uint32_t conn)
{
    return conn * 2;
}

inline net::StreamOracle::StreamId
downStream(std::uint32_t conn)
{
    return conn * 2 + 1;
}

/** The expected payload byte at @p offset of @p stream. */
inline std::uint8_t
fuzzByte(std::uint64_t stream, std::uint64_t offset)
{
    return static_cast<std::uint8_t>((offset * 131 + 17 + stream * 83) &
                                     0xff);
}

/** Byte @p pos of the client->server stream (header, then payload). */
inline std::uint8_t
upStreamByte(std::uint32_t conn, const ConnPlan &plan, std::uint64_t pos)
{
    if (pos < headerBytes) {
        std::uint32_t words[3] = {conn, plan.requestBytes,
                                  plan.responseBytes};
        return static_cast<std::uint8_t>(
            (words[pos / 4] >> ((pos % 4) * 8)) & 0xff);
    }
    return fuzzByte(upStream(conn), pos - headerBytes);
}

class FuzzClient
{
  public:
    FuzzClient(apps::SocketApi &api, const Scenario &scenario,
               net::StreamOracle &oracle)
        : api_(api), scenario_(scenario), oracle_(oracle),
          conns_(scenario.conns.size()), scratch_(8192)
    {}

    void
    start()
    {
        apps::SocketApi::Handlers handlers;
        handlers.onConnected = [this](int id) {
            Conn *c = find(id);
            if (c == nullptr)
                return;
            oracle_.setOutcome(c->index, net::ConnOutcome::established);
            pump(*c);
        };
        handlers.onWritable = [this](int id) {
            if (Conn *c = find(id))
                pump(*c);
        };
        handlers.onReadable = [this](int id, std::size_t) {
            if (Conn *c = find(id))
                drain(*c);
        };
        handlers.onPeerClosed = [this](int id) {
            // The server should never close first; drain whatever is
            // left and close so the run still terminates.
            if (Conn *c = find(id)) {
                drain(*c);
                if (!c->closeSent) {
                    c->closeSent = true;
                    api_.close(c->id);
                }
            }
        };
        handlers.onClosed = [this](int id) {
            if (Conn *c = find(id); c != nullptr && !c->done) {
                c->done = true;
                oracle_.setOutcome(c->index, net::ConnOutcome::closedClean);
            }
        };
        handlers.onReset = [this](int id) {
            if (Conn *c = find(id); c != nullptr && !c->done) {
                c->done = true;
                // A reset after we finished and closed is a teardown
                // race (e.g. an RST answering a duplicated segment that
                // arrived post-destroy): application-visibly the
                // connection delivered everything and closed cleanly,
                // and whether the race happens is timing-dependent, so
                // the differential outcome must not depend on it.
                oracle_.setOutcome(c->index,
                                   c->closeSent
                                       ? net::ConnOutcome::closedClean
                                       : net::ConnOutcome::reset);
            }
        };
        api_.setHandlers(handlers);

        for (std::size_t i = 0; i < conns_.size(); ++i) {
            sim::Tick when = api_.simulation().now() +
                             scenario_.conns[i].connectDelay + 1;
            api_.simulation().queue().scheduleCallback(
                when, sim::prof::Cat::app, "fuzz.connect",
                [this, i] { open(i); });
        }
    }

    /** All connections reached a terminal state. */
    bool
    done() const
    {
        return std::all_of(conns_.begin(), conns_.end(),
                           [](const Conn &c) { return c.done; });
    }

  private:
    struct Conn
    {
        int id = apps::SocketApi::invalidConn;
        std::uint32_t index = 0;
        std::uint64_t sent = 0;     ///< header + request bytes pushed
        std::uint64_t received = 0; ///< response bytes drained
        bool closeSent = false;
        bool done = false;
    };

    Conn *
    find(int id)
    {
        for (Conn &c : conns_) {
            if (c.id == id)
                return &c;
        }
        return nullptr;
    }

    void
    open(std::size_t index)
    {
        Conn &c = conns_[index];
        c.index = static_cast<std::uint32_t>(index);
        c.id = api_.connect(testbed::ipB(), fuzzPort);
    }

    void
    pump(Conn &c)
    {
        const ConnPlan &plan = scenario_.conns[c.index];
        const std::uint64_t total = headerBytes + plan.requestBytes;
        while (c.sent < total && !c.closeSent) {
            std::size_t chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(plan.chunkBytes, total - c.sent));
            for (std::size_t k = 0; k < chunk; ++k)
                scratch_[k] = upStreamByte(c.index, plan, c.sent + k);
            // Always attempt the send: a short or zero accept is what
            // arms the writable notification.
            std::size_t n = api_.send(
                c.id, std::span<const std::uint8_t>(scratch_.data(), chunk));
            if (n > 0) {
                oracle_.onSend(upStream(c.index),
                               std::span<const std::uint8_t>(scratch_.data(),
                                                             n));
                c.sent += n;
            }
            if (n < chunk)
                return;
        }
    }

    void
    drain(Conn &c)
    {
        const ConnPlan &plan = scenario_.conns[c.index];
        while (true) {
            std::size_t n = api_.recv(
                c.id, std::span<std::uint8_t>(scratch_.data(),
                                              scratch_.size()));
            if (n == 0)
                break;
            oracle_.onDeliver(downStream(c.index),
                              std::span<const std::uint8_t>(scratch_.data(),
                                                            n));
            c.received += n;
        }
        const std::uint64_t total = headerBytes + plan.requestBytes;
        if (!c.closeSent && c.sent == total &&
            c.received >= plan.responseBytes) {
            c.closeSent = true;
            api_.close(c.id);
        }
    }

    apps::SocketApi &api_;
    const Scenario &scenario_;
    net::StreamOracle &oracle_;
    std::vector<Conn> conns_;
    std::vector<std::uint8_t> scratch_;
};

class FuzzServer
{
  public:
    FuzzServer(apps::SocketApi &api, net::StreamOracle &oracle)
        : api_(api), oracle_(oracle), scratch_(8192)
    {}

    void
    start()
    {
        apps::SocketApi::Handlers handlers;
        handlers.onAccepted = [this](int id, std::uint16_t) {
            // Drain immediately: data may already be buffered if the
            // accept notification was delayed past the first arrivals.
            drain(id, conns_[id]);
        };
        handlers.onReadable = [this](int id, std::size_t) {
            auto it = conns_.find(id);
            if (it != conns_.end())
                drain(id, it->second);
        };
        handlers.onWritable = [this](int id) {
            auto it = conns_.find(id);
            if (it != conns_.end())
                pumpResponse(id, it->second);
        };
        handlers.onPeerClosed = [this](int id) {
            auto it = conns_.find(id);
            if (it == conns_.end())
                return;
            // Late data can still be pending: drain before closing.
            drain(id, it->second);
            it->second.peerClosed = true;
            maybeClose(id, it->second);
        };
        handlers.onClosed = [this](int id) { conns_.erase(id); };
        handlers.onReset = [this](int id) { conns_.erase(id); };
        api_.setHandlers(handlers);
        api_.listen(fuzzPort);
    }

  private:
    struct Conn
    {
        bool headerKnown = false;
        std::uint32_t index = 0;
        std::uint32_t requestBytes = 0;
        std::uint32_t responseBytes = 0;
        std::vector<std::uint8_t> headerBuf;
        std::uint64_t received = 0;
        std::uint64_t responseSent = 0;
        bool responding = false;
        bool peerClosed = false;
        bool closeSent = false;
    };

    void
    drain(int id, Conn &c)
    {
        while (true) {
            std::size_t n = api_.recv(
                id, std::span<std::uint8_t>(scratch_.data(),
                                            scratch_.size()));
            if (n == 0)
                break;
            const std::uint8_t *p = scratch_.data();
            std::size_t left = n;
            if (!c.headerKnown) {
                while (left > 0 && c.headerBuf.size() < headerBytes) {
                    c.headerBuf.push_back(*p++);
                    --left;
                }
                if (c.headerBuf.size() == headerBytes) {
                    auto word = [&c](std::size_t i) {
                        return static_cast<std::uint32_t>(
                            c.headerBuf[i * 4] |
                            (c.headerBuf[i * 4 + 1] << 8) |
                            (c.headerBuf[i * 4 + 2] << 16) |
                            (c.headerBuf[i * 4 + 3] << 24));
                    };
                    c.index = word(0);
                    c.requestBytes = word(1);
                    c.responseBytes = word(2);
                    c.headerKnown = true;
                    oracle_.onDeliver(
                        upStream(c.index),
                        std::span<const std::uint8_t>(c.headerBuf.data(),
                                                      c.headerBuf.size()));
                }
            }
            if (c.headerKnown && left > 0) {
                oracle_.onDeliver(upStream(c.index),
                                  std::span<const std::uint8_t>(p, left));
            }
            c.received += n;
        }
        if (c.headerKnown && !c.responding &&
            c.received >= headerBytes + c.requestBytes) {
            c.responding = true;
            pumpResponse(id, c);
        }
    }

    void
    pumpResponse(int id, Conn &c)
    {
        if (!c.responding)
            return;
        while (c.responseSent < c.responseBytes) {
            std::size_t chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(scratch_.size(),
                                        c.responseBytes - c.responseSent));
            for (std::size_t k = 0; k < chunk; ++k)
                scratch_[k] = fuzzByte(downStream(c.index),
                                       c.responseSent + k);
            std::size_t n = api_.send(
                id, std::span<const std::uint8_t>(scratch_.data(), chunk));
            if (n > 0) {
                oracle_.onSend(downStream(c.index),
                               std::span<const std::uint8_t>(scratch_.data(),
                                                             n));
                c.responseSent += n;
            }
            if (n < chunk)
                return;
        }
        maybeClose(id, c);
    }

    void
    maybeClose(int id, Conn &c)
    {
        if (c.peerClosed && !c.closeSent &&
            (!c.responding || c.responseSent == c.responseBytes)) {
            c.closeSent = true;
            api_.close(id);
        }
    }

    apps::SocketApi &api_;
    net::StreamOracle &oracle_;
    std::map<int, Conn> conns_;
    std::vector<std::uint8_t> scratch_;
};

} // namespace f4t::fuzz

#endif // F4T_TESTS_FUZZ_APPS_HH
