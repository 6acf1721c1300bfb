#include "kv.hh"

#include <algorithm>

#include "host/cost_model.hh"

namespace f4t::apps
{

using tcp::CostCategory;

namespace
{

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
           (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

} // namespace

void
kvEncode(const KvHeader &header, std::vector<std::uint8_t> &out)
{
    putU32(out, kvMagic);
    out.push_back(static_cast<std::uint8_t>(header.op));
    out.push_back(header.response ? 1 : 0);
    out.push_back(0);
    out.push_back(0);
    putU32(out, header.key);
    putU32(out, header.valueBytes);
}

bool
kvDecode(std::span<const std::uint8_t> bytes, KvHeader &out)
{
    if (bytes.size() < kvHeaderBytes || getU32(bytes.data()) != kvMagic)
        return false;
    std::uint8_t op = bytes[4];
    if (op > static_cast<std::uint8_t>(KvOp::set))
        return false;
    out.op = static_cast<KvOp>(op);
    out.response = (bytes[5] & 1) != 0;
    out.key = getU32(bytes.data() + 8);
    out.valueBytes = getU32(bytes.data() + 12);
    return true;
}

KvServerApp::KvServerApp(SocketApi &api, const KvServerConfig &config)
    : api_(api), config_(config), scratch_(16384)
{}

void
KvServerApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onAccepted = [this](SocketApi::ConnId conn, std::uint16_t) {
        conns_[conn];
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        onData(conn);
    };
    handlers.onWritable = [this](SocketApi::ConnId conn) {
        auto it = conns_.find(conn);
        if (it != conns_.end())
            flush(conn, it->second);
    };
    handlers.onPeerClosed = [this](SocketApi::ConnId conn) {
        api_.close(conn);
    };
    handlers.onClosed = [this](SocketApi::ConnId conn) {
        conns_.erase(conn);
    };
    handlers.onReset = [this](SocketApi::ConnId conn) {
        conns_.erase(conn);
    };
    api_.setHandlers(handlers);
    api_.listen(config_.port);
}

void
KvServerApp::onData(SocketApi::ConnId conn)
{
    auto it = conns_.find(conn);
    if (it == conns_.end())
        return;
    process(conn, it->second);
}

void
KvServerApp::process(SocketApi::ConnId conn, Conn &state)
{
    for (;;) {
        if (!state.haveHeader) {
            std::size_t need = kvHeaderBytes - state.header.size();
            std::size_t n =
                api_.recv(conn, std::span(scratch_.data(), need));
            if (n == 0)
                return;
            state.header.insert(state.header.end(), scratch_.begin(),
                                scratch_.begin() + n);
            if (state.header.size() < kvHeaderBytes)
                continue;
            if (!kvDecode(state.header, state.request) ||
                state.request.response) {
                ++protocolErrors_;
                conns_.erase(conn);
                api_.close(conn);
                return;
            }
            state.header.clear();
            state.haveHeader = true;
            bool is_set = state.request.op == KvOp::set;
            api_.core().charge(CostCategory::application,
                               is_set ? host::AppCosts::kvSet
                                      : host::AppCosts::kvGet);
            state.valueRemaining = is_set ? state.request.valueBytes : 0;
            if (state.valueRemaining == 0) {
                respond(conn, state, state.request);
                state.haveHeader = false;
            }
        } else {
            std::size_t want = std::min<std::size_t>(state.valueRemaining,
                                                     scratch_.size());
            std::size_t n =
                api_.recv(conn, std::span(scratch_.data(), want));
            if (n == 0)
                return;
            if (config_.oracle != nullptr) {
                config_.oracle->onDeliver(
                    kvSetStream(state.request.key),
                    std::span(scratch_.data(), n));
            }
            valueBytesIn_ += n;
            setBytesByKey_[state.request.key] += n;
            state.valueRemaining -= static_cast<std::uint32_t>(n);
            if (state.valueRemaining == 0) {
                respond(conn, state, state.request);
                state.haveHeader = false;
            }
        }
    }
}

void
KvServerApp::respond(SocketApi::ConnId conn, Conn &state,
                     const KvHeader &request)
{
    KvHeader response = request;
    response.response = true;
    kvEncode(response, state.out);
    if (request.op == KvOp::get) {
        ++gets_;
        std::uint64_t &offset = state.getOffset[request.key];
        std::size_t start = state.out.size();
        state.out.resize(start + request.valueBytes);
        kvValueBytes(request.key, offset,
                     std::span(state.out).subspan(start));
        if (config_.oracle != nullptr && request.valueBytes > 0) {
            config_.oracle->onSend(
                kvGetStream(request.key),
                std::span(state.out.data() + start, request.valueBytes));
        }
        offset += request.valueBytes;
        valueBytesOut_ += request.valueBytes;
    } else {
        ++sets_;
    }
    flush(conn, state);
}

void
KvServerApp::flush(SocketApi::ConnId conn, Conn &state)
{
    while (state.outSent < state.out.size()) {
        std::size_t n = api_.send(
            conn, std::span(state.out.data() + state.outSent,
                            state.out.size() - state.outSent));
        if (n == 0)
            break;
        state.outSent += n;
    }
    if (state.outSent == state.out.size()) {
        state.out.clear();
        state.outSent = 0;
    } else if (state.outSent > 65536) {
        // Keep the pending buffer from growing without bound under a
        // slow consumer: shed the already-sent prefix.
        state.out.erase(state.out.begin(),
                        state.out.begin() +
                            static_cast<std::ptrdiff_t>(state.outSent));
        state.outSent = 0;
    }
}

} // namespace f4t::apps
