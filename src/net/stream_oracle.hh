/**
 * @file
 * StreamOracle: an application-layer ledger of every byte a stream
 * producer hands to the transport, verified byte-for-byte against what
 * the consumer eventually reads.
 *
 * TCP's contract is exact in-order delivery of the byte stream. The
 * oracle enforces it independently of the stack under test: the sender
 * side registers each send() payload (onSend), the receiver side
 * registers each recv() result (onDeliver), and the oracle checks that
 * the delivered stream is a byte-identical prefix of the sent stream.
 * Only the in-flight window (sent minus delivered) is buffered, so
 * memory stays bounded by the transport's own buffering.
 *
 * Violations are collected, not thrown: fuzz harnesses print the
 * reproducing seed and scenario before failing, which an abort inside
 * the oracle would preclude. Per-stream FNV-1a digests of the full
 * sent/delivered streams feed the differential layer — two worlds that
 * ran the same scenario must agree on delivered byte counts and
 * digests even though their timing differs.
 */

#ifndef F4T_NET_STREAM_ORACLE_HH
#define F4T_NET_STREAM_ORACLE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace f4t::net
{

/** Terminal state of a tracked connection, for differential checks. */
enum class ConnOutcome : std::uint8_t
{
    pending,     ///< never finished establishing
    established, ///< up, but neither side closed
    closedClean, ///< FIN handshake completed
    reset,       ///< torn down by RST
};

const char *toString(ConnOutcome outcome);

class StreamOracle
{
  public:
    /** One simplex byte stream; the harness picks the key scheme
     *  (e.g. connection-index * 2 + direction). */
    using StreamId = std::uint64_t;

    /** Producer side: @p data was accepted by the transport's send(). */
    void onSend(StreamId stream, std::span<const std::uint8_t> data);

    /** Consumer side: @p data came out of the transport's recv(). */
    void onDeliver(StreamId stream, std::span<const std::uint8_t> data);

    /** Record the terminal state of a logical connection. */
    void setOutcome(StreamId conn, ConnOutcome outcome);
    ConnOutcome outcome(StreamId conn) const;

    /** Assert (as a recorded violation) that the stream fully drained. */
    void expectFullyDelivered(StreamId stream);

    std::uint64_t sentBytes(StreamId stream) const;
    std::uint64_t deliveredBytes(StreamId stream) const;
    std::uint64_t totalSentBytes() const;
    std::uint64_t totalDeliveredBytes() const;

    /**
     * Order-independent digest of the final ledger (per-stream byte
     * counts, stream digests, and connection outcomes). Two worlds
     * that delivered the same bytes to the same streams agree on it.
     */
    std::uint64_t ledgerDigest() const;

    /** Post-run inspection only: call after traffic has stopped. */
    bool passed() const { return violations_.empty(); }
    /** Post-run inspection only (returns a reference into the ledger). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** Multi-line human-readable report of all recorded violations. */
    std::string report() const;

  private:
    struct Stream
    {
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
        std::uint64_t sentDigest = fnvOffset;
        std::uint64_t deliveredDigest = fnvOffset;
        /** Sent-but-undelivered bytes (the verification window). */
        std::deque<std::uint8_t> inFlight;
        bool corrupt = false; ///< first mismatch already reported
    };

    static constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;
    static constexpr std::size_t maxViolations = 16;

    void violation(std::string message);

    // std::map: deterministic iteration order for ledgerDigest().
    std::map<StreamId, Stream> streams_;
    std::map<StreamId, ConnOutcome> outcomes_;
    std::vector<std::string> violations_;
    std::uint64_t suppressedViolations_ = 0;
};

} // namespace f4t::net

#endif // F4T_NET_STREAM_ORACLE_HH
