#include "stream_oracle.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace f4t::net
{

namespace
{

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

} // namespace

const char *
toString(ConnOutcome outcome)
{
    switch (outcome) {
      case ConnOutcome::pending: return "pending";
      case ConnOutcome::established: return "established";
      case ConnOutcome::closedClean: return "closedClean";
      case ConnOutcome::reset: return "reset";
    }
    return "?";
}

void
StreamOracle::violation(std::string message)
{
    if (violations_.size() >= maxViolations) {
        ++suppressedViolations_;
        return;
    }
    violations_.push_back(std::move(message));
}

void
StreamOracle::onSend(StreamId stream, std::span<const std::uint8_t> data)
{
    Stream &s = streams_[stream];
    for (std::uint8_t byte : data)
        s.sentDigest = (s.sentDigest ^ byte) * fnvPrime;
    s.inFlight.insert(s.inFlight.end(), data.begin(), data.end());
    s.sent += data.size();
}

void
StreamOracle::onDeliver(StreamId stream,
                        std::span<const std::uint8_t> data)
{
    Stream &s = streams_[stream];
    for (std::uint8_t byte : data)
        s.deliveredDigest = (s.deliveredDigest ^ byte) * fnvPrime;

    // The span consumes the oldest in-flight bytes; whatever is left of
    // it was never sent. Only the first fault of a stream is reported.
    std::size_t matched = std::min(data.size(), s.inFlight.size());
    auto window = s.inFlight.begin();
    if (!s.corrupt && !std::equal(window, window + matched, data.begin())) {
        auto [expected, got] =
            std::mismatch(window, window + matched, data.begin());
        s.corrupt = true;
        violation(format("stream %" PRIu64 ": corrupt byte at offset "
                         "%" PRIu64 ": expected 0x%02x, got 0x%02x",
                         stream, s.delivered + (got - data.begin()),
                         *expected, *got));
    }
    if (!s.corrupt && matched < data.size()) {
        s.corrupt = true;
        violation(format("stream %" PRIu64 ": delivered byte at offset "
                         "%" PRIu64 " beyond the %" PRIu64
                         " bytes ever sent",
                         stream, s.delivered + matched, s.sent));
    }
    s.inFlight.erase(window, window + matched);
    s.delivered += data.size();
}

void
StreamOracle::setOutcome(StreamId conn, ConnOutcome outcome)
{
    outcomes_[conn] = outcome;
}

ConnOutcome
StreamOracle::outcome(StreamId conn) const
{
    auto it = outcomes_.find(conn);
    return it == outcomes_.end() ? ConnOutcome::pending : it->second;
}

void
StreamOracle::expectFullyDelivered(StreamId stream)
{
    auto it = streams_.find(stream);
    if (it == streams_.end())
        return; // nothing was ever sent: vacuously drained
    const Stream &s = it->second;
    if (s.delivered != s.sent) {
        violation(format("stream %" PRIu64 ": only %" PRIu64 " of %" PRIu64
                         " sent bytes delivered",
                         stream, s.delivered, s.sent));
    } else if (s.deliveredDigest != s.sentDigest && !s.corrupt) {
        violation(format("stream %" PRIu64 ": digests diverge at equal "
                         "length %" PRIu64, stream, s.sent));
    }
}

std::uint64_t
StreamOracle::sentBytes(StreamId stream) const
{
    auto it = streams_.find(stream);
    return it == streams_.end() ? 0 : it->second.sent;
}

std::uint64_t
StreamOracle::deliveredBytes(StreamId stream) const
{
    auto it = streams_.find(stream);
    return it == streams_.end() ? 0 : it->second.delivered;
}

std::uint64_t
StreamOracle::totalSentBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[id, s] : streams_)
        total += s.sent;
    return total;
}

std::uint64_t
StreamOracle::totalDeliveredBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[id, s] : streams_)
        total += s.delivered;
    return total;
}

std::uint64_t
StreamOracle::ledgerDigest() const
{
    std::uint64_t digest = fnvOffset;
    auto mix = [&digest](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            digest = (digest ^ (value & 0xff)) * fnvPrime;
            value >>= 8;
        }
    };
    for (const auto &[id, s] : streams_) {
        mix(id);
        mix(s.delivered);
        mix(s.deliveredDigest);
    }
    for (const auto &[conn, outcome] : outcomes_) {
        mix(conn);
        mix(static_cast<std::uint64_t>(outcome));
    }
    return digest;
}

std::string
StreamOracle::report() const
{
    if (violations_.empty())
        return "stream oracle: all checks passed";
    std::string out = format("stream oracle: %zu violation(s)",
                             violations_.size() + suppressedViolations_);
    for (const std::string &v : violations_)
        out += "\n  - " + v;
    if (suppressedViolations_ > 0) {
        out += format("\n  (… %" PRIu64 " further violations suppressed)",
                      suppressedViolations_);
    }
    return out;
}

} // namespace f4t::net
