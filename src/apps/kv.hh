/**
 * @file
 * Memcached-style key/value application model.
 *
 * The HTTP pair (http.hh) reproduces the paper's Nginx/wrk benchmark;
 * this is the other canonical datacenter RPC shape: small fixed binary
 * headers, GETs whose *response* carries the value bytes and SETs
 * whose *request* does, heavy-tailed value sizes, many small
 * operations per connection. The open-loop generator (src/load)
 * drives it from Poisson/log-normal arrival processes.
 *
 * The protocol is a 16-byte fixed binary header, explicitly
 * little-endian encoded so the byte stream is identical on every
 * build:
 *
 *   magic      u32   0x46344b56 ("F4KV")
 *   op         u8    0 = GET, 1 = SET
 *   flags      u8    bit 0: response
 *   reserved   u16   0
 *   key        u32   identifies the value (and the oracle stream)
 *   valueBytes u32   GET: requested/returned size; SET: payload size
 *
 * A GET request is a bare header; the response echoes the header with
 * the response flag and appends valueBytes of deterministic pattern
 * payload. A SET request is a header plus valueBytes of payload; the
 * ack is a bare header. The server synthesizes GET values from the
 * request (size is the client's to choose), so no store is modeled —
 * the byte streams, not the data structure, are what the transport
 * experiments need.
 *
 * Ledger integration: value payloads can be registered with a
 * net::StreamOracle — SET request bytes on kvSetStream(key), GET
 * response bytes on kvGetStream(key) — giving the serial-vs-parallel
 * differential a byte-exact application-layer invariant that is
 * independent of packetization and fault-recovery timing.
 */

#ifndef F4T_APPS_KV_HH
#define F4T_APPS_KV_HH

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "apps/socket_api.hh"
#include "net/stream_oracle.hh"
#include "sim/stats.hh"

namespace f4t::apps
{

constexpr std::uint32_t kvMagic = 0x46344b56; // "F4KV"
constexpr std::size_t kvHeaderBytes = 16;

enum class KvOp : std::uint8_t
{
    get = 0,
    set = 1,
};

struct KvHeader
{
    KvOp op = KvOp::get;
    bool response = false;
    std::uint32_t key = 0;
    std::uint32_t valueBytes = 0;
};

/** Append the 16-byte wire encoding of @p header to @p out. */
void kvEncode(const KvHeader &header, std::vector<std::uint8_t> &out);

/** Decode 16 header bytes; false when the magic doesn't match. */
bool kvDecode(std::span<const std::uint8_t> bytes, KvHeader &out);

/** Deterministic value bytes of key @p key's stream, one per byte of
 *  @p out, starting at stream offset @p offset. */
inline void
kvValueBytes(std::uint32_t key, std::uint64_t offset,
             std::span<std::uint8_t> out)
{
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<std::uint8_t>(
            ((offset + i) * 131 + key * 29 + 17) & 0xff);
    }
}

/** Oracle stream ids: one simplex stream per key per direction. */
inline net::StreamOracle::StreamId
kvSetStream(std::uint32_t key)
{
    return std::uint64_t{key} * 2;
}

inline net::StreamOracle::StreamId
kvGetStream(std::uint32_t key)
{
    return std::uint64_t{key} * 2 + 1;
}

struct KvServerConfig
{
    std::uint16_t port = 11211;
    /** Optional byte-exact ledger for value payloads. */
    net::StreamOracle *oracle = nullptr;
};

class KvServerApp
{
  public:
    KvServerApp(SocketApi &api, const KvServerConfig &config);

    void start();

    std::uint64_t gets() const { return gets_; }
    std::uint64_t sets() const { return sets_; }
    std::uint64_t valueBytesIn() const { return valueBytesIn_; }
    std::uint64_t valueBytesOut() const { return valueBytesOut_; }
    std::uint64_t protocolErrors() const { return protocolErrors_; }
    /** Per-key SET value bytes consumed (for replay equivalence). */
    const std::map<std::uint32_t, std::uint64_t> &setBytesByKey() const
    {
        return setBytesByKey_;
    }

  private:
    struct Conn
    {
        /** Partial request header bytes. */
        std::vector<std::uint8_t> header;
        KvHeader request;
        bool haveHeader = false;
        std::uint32_t valueRemaining = 0; ///< SET payload left to consume
        /** Pending response bytes not yet accepted by send(). */
        std::vector<std::uint8_t> out;
        std::size_t outSent = 0;
        /** GET-response payload offset per key (oracle/pattern). */
        std::map<std::uint32_t, std::uint64_t> getOffset;
        std::map<std::uint32_t, std::uint64_t> setOffset;
    };

    void onData(SocketApi::ConnId conn);
    void process(SocketApi::ConnId conn, Conn &state);
    void respond(SocketApi::ConnId conn, Conn &state,
                 const KvHeader &request);
    void flush(SocketApi::ConnId conn, Conn &state);

    SocketApi &api_;
    KvServerConfig config_;
    std::map<SocketApi::ConnId, Conn> conns_;
    std::vector<std::uint8_t> scratch_;
    std::uint64_t gets_ = 0;
    std::uint64_t sets_ = 0;
    std::uint64_t valueBytesIn_ = 0;
    std::uint64_t valueBytesOut_ = 0;
    std::uint64_t protocolErrors_ = 0;
    std::map<std::uint32_t, std::uint64_t> setBytesByKey_;
};

} // namespace f4t::apps

#endif // F4T_APPS_KV_HH
