#include "http.hh"

#include <cstring>

#include "host/cost_model.hh"

namespace f4t::apps
{

using tcp::CostCategory;

HttpServerApp::HttpServerApp(SocketApi &api, const HttpServerConfig &config)
    : api_(api), config_(config), scratch_(4096)
{
    // Fixed-size response: status line + headers + HTML payload padded
    // to exactly responseBytes (as in the paper's 256 B responses).
    std::string head = "HTTP/1.1 200 OK\r\nServer: f4t-sim\r\n"
                       "Content-Type: text/html\r\nContent-Length: ";
    std::string body = "<html><body>f4t</body></html>";
    std::size_t overhead = head.size() + 8 /* length digits + CRLFCRLF */;
    std::size_t body_len = config_.responseBytes > overhead + body.size()
                               ? config_.responseBytes - overhead
                               : body.size();
    while (body.size() < body_len)
        body.push_back('.');
    char len_str[16];
    std::snprintf(len_str, sizeof(len_str), "%zu\r\n\r\n", body.size());
    std::string full = head + len_str + body;
    // Pad or trim to the exact configured size.
    while (full.size() < config_.responseBytes)
        full.push_back('.');
    full.resize(config_.responseBytes);
    response_.assign(full.begin(), full.end());
}

void
HttpServerApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onAccepted = [this](SocketApi::ConnId conn, std::uint16_t) {
        partial_[conn].clear();
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        onData(conn);
    };
    handlers.onClosed = [this](SocketApi::ConnId conn) {
        partial_.erase(conn);
    };
    handlers.onPeerClosed = [this](SocketApi::ConnId conn) {
        api_.close(conn);
    };
    api_.setHandlers(handlers);
    api_.listen(config_.port);
}

void
HttpServerApp::onData(SocketApi::ConnId conn)
{
    std::string &buffer = partial_[conn];
    while (true) {
        std::size_t n = api_.recv(conn, scratch_);
        if (n == 0)
            break;
        buffer.append(reinterpret_cast<const char *>(scratch_.data()), n);
    }

    // Serve every complete request in the buffer.
    std::size_t pos;
    while ((pos = buffer.find("\r\n\r\n")) != std::string::npos) {
        buffer.erase(0, pos + 4);
        respond(conn);
    }
}

void
HttpServerApp::respond(SocketApi::ConnId conn)
{
    api_.core().charge(CostCategory::application,
                       host::NginxCosts::appProcessing);
    api_.core().charge(CostCategory::filesystem,
                       host::NginxCosts::filesystem);
    if (config_.stackCyclesPerRequest > 0) {
        api_.core().charge(CostCategory::tcpStack,
                           config_.stackCyclesPerRequest);
    }
    if (config_.kernelCyclesPerRequest > 0) {
        api_.core().charge(CostCategory::kernelOther,
                           config_.kernelCyclesPerRequest);
    }
    api_.send(conn, response_);
    ++requestsServed_;
}

HttpLoadGenApp::HttpLoadGenApp(SocketApi &api, sim::Histogram *latency_us,
                               const HttpLoadGenConfig &config)
    : api_(api), latency_(latency_us), config_(config), scratch_(4096)
{
    request_ = "GET " + config_.target +
               " HTTP/1.1\r\nHost: f4t-bench\r\nUser-Agent: wrk\r\n\r\n";
}

void
HttpLoadGenApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onConnected = [this](SocketApi::ConnId conn) {
        ++connected_;
        issue(conn);
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        onData(conn);
    };
    api_.setHandlers(handlers);
    connectNext(0);
}

void
HttpLoadGenApp::connectNext(std::size_t index)
{
    if (index >= config_.connections)
        return;
    api_.connect(config_.peer, config_.port);
    api_.simulation().queue().scheduleCallback(
        api_.simulation().now() + config_.connectSpacing,
        sim::prof::Cat::app, "http.connectNext",
        [this, index] { connectNext(index + 1); });
}

void
HttpLoadGenApp::issue(SocketApi::ConnId conn)
{
    api_.core().charge(CostCategory::application, host::wrkRequestCost);
    awaiting_[conn] = config_.responseBytes;
    sendTime_[conn] = api_.simulation().now();
    api_.send(conn,
              std::span(reinterpret_cast<const std::uint8_t *>(
                            request_.data()),
                        request_.size()));
}

void
HttpLoadGenApp::onData(SocketApi::ConnId conn)
{
    auto it = awaiting_.find(conn);
    if (it == awaiting_.end())
        return;
    while (it->second > 0) {
        std::size_t want = std::min(it->second, scratch_.size());
        std::size_t n =
            api_.recv(conn, std::span(scratch_).subspan(0, want));
        if (n == 0)
            return;
        it->second -= n;
    }

    if (latency_) {
        latency_->sample(sim::ticksToSeconds(api_.simulation().now() -
                                             sendTime_[conn]) *
                         1e6);
    }
    ++responses_;
    issue(conn);
}

} // namespace f4t::apps
