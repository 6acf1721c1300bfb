#include "workloads.hh"

#include "host/cost_model.hh"

namespace f4t::apps
{

using tcp::CostCategory;

namespace
{

/** @p bytes pattern bytes from stream offset 0. */
std::vector<std::uint8_t>
patternBytes(std::size_t bytes)
{
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t b = 0; b < bytes; ++b)
        out[b] = patternByte(b);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// BulkSenderApp
// ---------------------------------------------------------------------

BulkSenderApp::BulkSenderApp(SocketApi &api, const BulkSenderConfig &config)
    : api_(api), config_(config),
      pattern_(patternBytes(config.requestBytes + patternPeriod))
{}

void
BulkSenderApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onConnected = [this](SocketApi::ConnId) {
        connected_ = true;
        pump();
    };
    handlers.onWritable = [this](SocketApi::ConnId) {
        if (blocked_) {
            blocked_ = false;
            pump();
        }
    };
    api_.setHandlers(handlers);
    conn_ = api_.connect(config_.peer, config_.port);
}

void
BulkSenderApp::pump()
{
    if (!connected_ || pumpScheduled_)
        return;

    for (std::size_t i = 0; i < burstRequests; ++i) {
        // Always attempt the send: a short or zero accept is what arms
        // the library's writable notification (pre-checking writable()
        // and parking would deadlock — nobody would wake us).
        api_.core().charge(CostCategory::application,
                           host::AppCosts::bulkRequest);
        std::size_t sent = api_.send(
            conn_, std::span(pattern_).subspan(bytesSent_ % patternPeriod,
                                               config_.requestBytes));
        bytesSent_ += sent;
        if (sent < config_.requestBytes) {
            // Buffer full: the library will call onWritable once ACKs
            // free space; the stream resumes at the pattern offset.
            blocked_ = true;
            return;
        }
        requestsSent_ += 1;
    }

    // Yield the core: the next burst starts after everything this
    // burst charged has "executed".
    pumpScheduled_ = true;
    api_.core().runWhenFree([this] {
        pumpScheduled_ = false;
        pump();
    });
}

// ---------------------------------------------------------------------
// BulkSinkApp
// ---------------------------------------------------------------------

BulkSinkApp::BulkSinkApp(SocketApi &api, const BulkSinkConfig &config)
    : api_(api), config_(config), scratch_(16 * 1024)
{}

void
BulkSinkApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onAccepted = [this](SocketApi::ConnId conn, std::uint16_t) {
        // Accept notifications can be delivered after the first data
        // readiness (the kernel wakeup jitter reorders them); never
        // reset an offset that draining has already advanced.
        streamOffset_.try_emplace(conn, 0);
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        drain(conn);
    };
    handlers.onClosed = [this](SocketApi::ConnId conn) {
        streamOffset_.erase(conn);
    };
    api_.setHandlers(handlers);
    api_.listen(config_.port);
}

void
BulkSinkApp::drain(SocketApi::ConnId conn)
{
    // Bounded work per activation; re-armed by the next onReadable.
    for (int round = 0; round < 8; ++round) {
        api_.core().charge(CostCategory::application,
                           host::AppCosts::bulkRecv);
        std::size_t n = api_.recv(conn, scratch_);
        if (n == 0)
            return;
        if (config_.verifyPattern) {
            std::uint64_t &offset = streamOffset_[conn];
            for (std::size_t i = 0; i < n; ++i) {
                if (scratch_[i] != patternByte(offset + i))
                    ++patternErrors_;
            }
            offset += n;
        }
        bytesReceived_ += n;
    }
    if (api_.readable(conn) > 0) {
        api_.core().runWhenFree([this, conn] { drain(conn); });
    }
}

// ---------------------------------------------------------------------
// RoundRobinSenderApp
// ---------------------------------------------------------------------

RoundRobinSenderApp::RoundRobinSenderApp(
    SocketApi &api, const RoundRobinSenderConfig &config)
    : api_(api), config_(config),
      request_(patternBytes(config.requestBytes))
{}

void
RoundRobinSenderApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onConnected = [this](SocketApi::ConnId) {
        ++connected_;
        if (connected_ == config_.flows)
            pump();
    };
    handlers.onWritable = [this](SocketApi::ConnId) { pump(); };
    api_.setHandlers(handlers);
    for (std::size_t i = 0; i < config_.flows; ++i)
        conns_.push_back(api_.connect(config_.peer, config_.port));
}

void
RoundRobinSenderApp::pump()
{
    if (connected_ < config_.flows || pumpScheduled_)
        return;

    std::size_t blocked_streak = 0;
    for (std::size_t i = 0;
         i < burstRequests && blocked_streak < conns_.size(); ++i) {
        SocketApi::ConnId conn = conns_[nextFlow_];
        nextFlow_ = (nextFlow_ + 1) % conns_.size();
        api_.core().charge(CostCategory::application,
                           host::AppCosts::roundRobinRequest);
        // Attempt the send even when the buffer looks full so the
        // stack arms its writable notification.
        std::size_t sent = api_.send(conn, request_);
        bytesSent_ += sent;
        if (sent < config_.requestBytes) {
            ++blocked_streak;
            continue; // resume via onWritable
        }
        blocked_streak = 0;
        ++requestsSent_;
    }
    if (blocked_streak >= conns_.size())
        return; // every flow is window-limited; onWritable resumes

    pumpScheduled_ = true;
    api_.core().runWhenFree([this] {
        pumpScheduled_ = false;
        pump();
    });
}

// ---------------------------------------------------------------------
// EchoServerApp
// ---------------------------------------------------------------------

EchoServerApp::EchoServerApp(SocketApi &api, const EchoServerConfig &config)
    : api_(api), config_(config), scratch_(echoMessageBytes)
{}

void
EchoServerApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        serve(conn);
    };
    api_.setHandlers(handlers);
    api_.listen(config_.port);
}

void
EchoServerApp::serve(SocketApi::ConnId conn)
{
    while (api_.readable(conn) >= echoMessageBytes) {
        api_.core().charge(CostCategory::application,
                           host::AppCosts::echoMessage);
        std::size_t n = api_.recv(conn, scratch_);
        if (n == 0)
            return;
        api_.send(conn, std::span(scratch_).subspan(0, n));
        ++messagesEchoed_;
    }
}

// ---------------------------------------------------------------------
// EchoClientApp
// ---------------------------------------------------------------------

EchoClientApp::EchoClientApp(SocketApi &api, sim::Histogram *latency,
                             const EchoClientConfig &config)
    : api_(api), latency_(latency), config_(config),
      message_(patternBytes(echoMessageBytes)), scratch_(echoMessageBytes)
{}

void
EchoClientApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onConnected = [this](SocketApi::ConnId conn) {
        ++connected_;
        fire(conn);
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        onEcho(conn);
    };
    api_.setHandlers(handlers);
    connectNext(0);
}

void
EchoClientApp::connectNext(std::size_t index)
{
    if (index >= config_.flows)
        return;
    api_.connect(config_.peer, config_.port);
    api_.simulation().queue().scheduleCallback(
        api_.simulation().now() + config_.connectSpacing,
        sim::prof::Cat::app, "echo.connectNext",
        [this, index] { connectNext(index + 1); });
}

void
EchoClientApp::fire(SocketApi::ConnId conn)
{
    api_.core().charge(CostCategory::application,
                       host::AppCosts::echoMessage);
    auto index = static_cast<std::size_t>(conn);
    if (index >= flights_.size())
        flights_.resize(index + 1);
    flights_[index] =
        Flight{true, api_.simulation().now(), echoMessageBytes};
    api_.send(conn, message_);
}

void
EchoClientApp::onEcho(SocketApi::ConnId conn)
{
    auto index = static_cast<std::size_t>(conn);
    if (index >= flights_.size() || !flights_[index].active)
        return;
    Flight &flight = flights_[index];
    while (flight.pendingBytes > 0) {
        std::size_t n = api_.recv(
            conn, std::span(scratch_).subspan(
                      0, std::min(flight.pendingBytes, scratch_.size())));
        if (n == 0)
            return;
        flight.pendingBytes -= n;
    }

    // Full echo received: complete the round trip and fire the next.
    if (latency_) {
        latency_->sample(sim::ticksToSeconds(api_.simulation().now() -
                                             flight.sentAt) *
                         1e6);
    }
    ++roundTrips_;
    fire(conn);
}

} // namespace f4t::apps
