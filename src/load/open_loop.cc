#include "load/open_loop.hh"

#include <algorithm>

#include "host/cost_model.hh"

namespace f4t::load
{

using apps::KvHeader;
using apps::KvOp;
using apps::SocketApi;
using tcp::CostCategory;

OpenLoopClientApp::OpenLoopClientApp(SocketApi &api,
                                     const OpenLoopConfig &config)
    : api_(api),
      config_(config),
      slots_(config.connections),
      arrivals_(config.arrivals,
                substreamSeed(config.seed,
                              std::uint64_t{config.clientId} * 3)),
      sizes_(config.valueSizes,
             substreamSeed(config.seed,
                           std::uint64_t{config.clientId} * 3 + 1)),
      opRng_(substreamSeed(config.seed,
                           std::uint64_t{config.clientId} * 3 + 2)),
      scratch_(16384)
{}

std::uint32_t
OpenLoopClientApp::key(std::size_t slot) const
{
    return config_.streamBase + static_cast<std::uint32_t>(slot);
}

void
OpenLoopClientApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onConnected = [this](SocketApi::ConnId conn) {
        auto it = slotById_.find(conn);
        if (it == slotById_.end())
            return;
        slots_[it->second].connected = true;
        tryDispatchSlot(it->second);
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        auto it = slotById_.find(conn);
        if (it != slotById_.end())
            onReadable(it->second);
    };
    handlers.onWritable = [this](SocketApi::ConnId conn) {
        auto it = slotById_.find(conn);
        if (it != slotById_.end())
            flushSlot(it->second);
    };
    handlers.onPeerClosed = [this](SocketApi::ConnId conn) {
        api_.close(conn);
    };
    handlers.onClosed = [this](SocketApi::ConnId conn) {
        auto it = slotById_.find(conn);
        if (it != slotById_.end()) {
            slots_[it->second].dead = true;
            slots_[it->second].connected = false;
        }
    };
    handlers.onReset = [this](SocketApi::ConnId conn) {
        auto it = slotById_.find(conn);
        if (it == slotById_.end())
            return;
        Slot &slot = slots_[it->second];
        slot.dead = true;
        slot.connected = false;
        slot.busy = false;
        ++resets_;
    };
    api_.setHandlers(handlers);

    connectSlot(0);
    lastArrival_ = std::max(config_.startAt, api_.simulation().now());
    scheduleNextArrival();
}

void
OpenLoopClientApp::connectSlot(std::size_t slot)
{
    if (slot >= slots_.size())
        return;
    SocketApi::ConnId id = api_.connect(config_.peer, config_.port);
    slots_[slot].id = id;
    slotById_[id] = slot;
    api_.simulation().queue().scheduleCallback(
        api_.simulation().now() + config_.connectSpacing,
        sim::prof::Cat::app, "openloop.connect",
        [this, slot] { connectSlot(slot + 1); });
}

void
OpenLoopClientApp::scheduleNextArrival()
{
    if (config_.maxRequests != 0 && issued_ >= config_.maxRequests)
        return;
    sim::Tick at = lastArrival_ + arrivals_.nextGap();
    at = std::max(at, api_.simulation().now());
    lastArrival_ = at;
    api_.simulation().queue().scheduleCallback(
        at, sim::prof::Cat::app, "openloop.arrival", [this, at] {
            Request request;
            request.arrival = at;
            request.op = opRng_.chance(config_.readFraction) ? KvOp::get
                                                             : KvOp::set;
            request.valueBytes = sizes_.next();
            ++issued_;
            onArrival(request);
            scheduleNextArrival();
        });
}

void
OpenLoopClientApp::onArrival(Request request)
{
    backlog_.push_back(request);
    peakBacklog_ = std::max(peakBacklog_, backlog_.size());
    tryDispatch();
}

void
OpenLoopClientApp::tryDispatch()
{
    while (!backlog_.empty()) {
        std::size_t free_slot = slots_.size();
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const Slot &slot = slots_[i];
            if (slot.connected && !slot.busy && !slot.dead) {
                free_slot = i;
                break;
            }
        }
        if (free_slot == slots_.size())
            return;
        Request request = backlog_.front();
        backlog_.pop_front();
        dispatch(free_slot, request);
    }
}

void
OpenLoopClientApp::tryDispatchSlot(std::size_t index)
{
    Slot &slot = slots_[index];
    if (!slot.connected || slot.busy || slot.dead)
        return;
    tryDispatch();
}

void
OpenLoopClientApp::dispatch(std::size_t index, const Request &request)
{
    Slot &slot = slots_[index];
    slot.busy = true;
    slot.current = request;
    ++dispatched_;

    api_.core().charge(CostCategory::application,
                       host::AppCosts::kvClientRequest);

    KvHeader header;
    header.op = request.op;
    header.key = key(index);
    header.valueBytes = request.valueBytes;
    kvEncode(header, slot.out);
    if (request.op == KvOp::set && request.valueBytes > 0) {
        std::size_t start = slot.out.size();
        slot.out.resize(start + request.valueBytes);
        apps::kvValueBytes(header.key, slot.setOffset,
                           std::span(slot.out).subspan(start));
        if (config_.oracle != nullptr) {
            config_.oracle->onSend(
                apps::kvSetStream(header.key),
                std::span(slot.out.data() + start, request.valueBytes));
        }
        slot.setOffset += request.valueBytes;
        valueBytesSent_ += request.valueBytes;
    }

    slot.headerRemaining = apps::kvHeaderBytes;
    slot.valueRemaining =
        request.op == KvOp::get ? request.valueBytes : 0;
    flushSlot(index);
}

void
OpenLoopClientApp::flushSlot(std::size_t index)
{
    Slot &slot = slots_[index];
    while (slot.outSent < slot.out.size()) {
        std::size_t n = api_.send(
            slot.id, std::span(slot.out.data() + slot.outSent,
                               slot.out.size() - slot.outSent));
        if (n == 0)
            break;
        slot.outSent += n;
    }
    if (slot.outSent == slot.out.size()) {
        slot.out.clear();
        slot.outSent = 0;
    } else if (slot.outSent > 65536) {
        slot.out.erase(slot.out.begin(),
                       slot.out.begin() +
                           static_cast<std::ptrdiff_t>(slot.outSent));
        slot.outSent = 0;
    }
}

void
OpenLoopClientApp::onReadable(std::size_t index)
{
    Slot &slot = slots_[index];
    for (;;) {
        if (!slot.busy)
            return;
        if (slot.headerRemaining > 0) {
            std::size_t n = api_.recv(
                slot.id, std::span(scratch_.data(), slot.headerRemaining));
            if (n == 0)
                return;
            slot.headerRemaining -= n;
        } else if (slot.valueRemaining > 0) {
            std::size_t want = std::min<std::size_t>(slot.valueRemaining,
                                                     scratch_.size());
            std::size_t n =
                api_.recv(slot.id, std::span(scratch_.data(), want));
            if (n == 0)
                return;
            if (config_.oracle != nullptr) {
                config_.oracle->onDeliver(apps::kvGetStream(key(index)),
                                          std::span(scratch_.data(), n));
            }
            slot.valueRemaining -= static_cast<std::uint32_t>(n);
            valueBytesReceived_ += n;
        } else {
            completeCurrent(index);
        }
    }
}

void
OpenLoopClientApp::completeCurrent(std::size_t index)
{
    Slot &slot = slots_[index];
    if (config_.latencyUs != nullptr) {
        sim::Tick now = api_.simulation().now();
        config_.latencyUs->sample(
            sim::ticksToSeconds(now - slot.current.arrival) * 1e6);
    }
    ++completed_;
    slot.busy = false;
    tryDispatchSlot(index);
}

ChurnClientApp::ChurnClientApp(SocketApi &api, const ChurnConfig &config)
    : api_(api),
      config_(config),
      arrivals_(config.arrivals,
                substreamSeed(config.seed,
                              0x100000ULL + config.clientId)),
      scratch_(4096)
{}

void
ChurnClientApp::start()
{
    SocketApi::Handlers handlers;
    handlers.onConnected = [this](SocketApi::ConnId conn) {
        auto it = conns_.find(conn);
        if (it == conns_.end() || it->second.requested)
            return;
        it->second.requested = true;
        api_.core().charge(CostCategory::application,
                           host::AppCosts::kvClientRequest);
        KvHeader header;
        header.op = KvOp::get;
        header.key = (config_.clientId << 20) |
                     (static_cast<std::uint32_t>(opened_) & 0xfffff);
        header.valueBytes = config_.requestBytes;
        std::vector<std::uint8_t> bytes;
        kvEncode(header, bytes);
        api_.send(conn, bytes);
    };
    handlers.onReadable = [this](SocketApi::ConnId conn, std::size_t) {
        onReadable(conn);
    };
    handlers.onPeerClosed = [this](SocketApi::ConnId conn) {
        api_.close(conn);
    };
    handlers.onClosed = [this](SocketApi::ConnId conn) {
        if (conns_.erase(conn) > 0)
            ++closed_;
    };
    handlers.onReset = [this](SocketApi::ConnId conn) {
        if (conns_.erase(conn) > 0)
            ++failed_;
    };
    api_.setHandlers(handlers);

    lastOpen_ = std::max(config_.startAt, api_.simulation().now());
    scheduleNextOpen();
}

void
ChurnClientApp::scheduleNextOpen()
{
    if (config_.maxOpens != 0 && opened_ >= config_.maxOpens)
        return;
    sim::Tick at = lastOpen_ + arrivals_.nextGap();
    at = std::max(at, api_.simulation().now());
    lastOpen_ = at;
    api_.simulation().queue().scheduleCallback(
        at, sim::prof::Cat::app, "churn.open", [this] {
            openOne();
            scheduleNextOpen();
        });
}

void
ChurnClientApp::openOne()
{
    SocketApi::ConnId id = api_.connect(config_.peer, config_.port);
    Conn conn;
    conn.openedAt = api_.simulation().now();
    conn.valueRemaining = config_.requestBytes;
    conns_[id] = conn;
    ++opened_;
}

void
ChurnClientApp::onReadable(SocketApi::ConnId id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    Conn &conn = it->second;
    for (;;) {
        if (conn.headerRemaining > 0) {
            std::size_t n = api_.recv(
                id, std::span(scratch_.data(), conn.headerRemaining));
            if (n == 0)
                return;
            conn.headerRemaining -= n;
        } else if (conn.valueRemaining > 0) {
            std::size_t want = std::min<std::size_t>(conn.valueRemaining,
                                                     scratch_.size());
            std::size_t n =
                api_.recv(id, std::span(scratch_.data(), want));
            if (n == 0)
                return;
            conn.valueRemaining -= static_cast<std::uint32_t>(n);
            valueBytesReceived_ += n;
        } else {
            if (!conn.closing) {
                conn.closing = true;
                // Lifecycle ends here: the response is fully drained
                // and the close is on the wire. The closed
                // notification additionally waits out TIME_WAIT on
                // the active closer (tracked via closedEvents()).
                if (config_.lifecycleUs != nullptr) {
                    config_.lifecycleUs->sample(
                        sim::ticksToSeconds(api_.simulation().now() -
                                            conn.openedAt) *
                        1e6);
                }
                ++completed_;
                api_.close(id);
            }
            return;
        }
    }
}

} // namespace f4t::load
