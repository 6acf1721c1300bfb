/**
 * @file
 * The packet generator (Section 4.1.2): passively builds packets when
 * the FPU requests a transfer.
 *
 * A request longer than the maximum segment size is split into MSS
 * segments. Payload is fetched from the host TCP data buffer (a PCIe
 * DMA in the real system) and appended to the generated header just
 * before the packet leaves — the generator never interprets the data.
 *
 * The module is stateless and runs in the 322 MHz domain; its
 * throughput model is one segment per cycle plus the payload fetch
 * latency, pipelined (busy-until pacing rather than per-cycle ticks).
 */

#ifndef F4T_CORE_PACKET_GENERATOR_HH
#define F4T_CORE_PACKET_GENERATOR_HH

#include <cstdint>
#include <functional>

#include "net/packet.hh"
#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"

namespace f4t::core
{

/** Addressing information the generator needs per flow. */
struct FlowAddress
{
    net::FourTuple tuple;
    net::MacAddress localMac;
    net::MacAddress peerMac;
};

/** Supplies transmit payload bytes (host buffer through PCIe). */
class PayloadSource
{
  public:
    virtual ~PayloadSource() = default;

    /**
     * Fill @p out with the flow's stream bytes at wire sequence
     * @p seq. @return the tick at which the data is available.
     */
    virtual sim::Tick fetchPayload(tcp::FlowId flow, net::SeqNum seq,
                                   std::span<std::uint8_t> out) = 0;
};

class PacketGenerator : public sim::SimObject
{
  public:
    using AddressLookup = std::function<FlowAddress(tcp::FlowId)>;
    using Transmit = std::function<void(net::Packet &&)>;

    PacketGenerator(sim::Simulation &sim, std::string name,
                    sim::ClockDomain &domain);

    void setAddressLookup(AddressLookup fn) { lookup_ = std::move(fn); }
    void setTransmit(Transmit fn) { transmit_ = std::move(fn); }
    void setPayloadSource(PayloadSource *source) { payload_ = source; }

    /** Data transfer request from an FPU pass; split at the MSS. */
    void requestSegments(const tcp::SegmentRequest &request);

    /** Pure control packet (SYN / ACK / FIN / RST / probe). */
    void requestControl(const tcp::ControlRequest &request);

    std::uint64_t segmentsGenerated() const { return segments_.value(); }
    std::uint64_t retransmissions() const { return retransmits_.value(); }

  private:
    /** Pipeline pacing: one segment per cycle at 322 MHz. */
    sim::Tick nextSlot();
    void emit(net::Packet &&pkt, sim::Tick when);

    sim::ClockDomain &domain_;
    AddressLookup lookup_;
    Transmit transmit_;
    PayloadSource *payload_ = nullptr;
    sim::Tick busyUntil_ = 0;

    sim::Counter segments_;
    sim::Counter controls_;
    sim::Counter retransmits_;
    sim::Counter payloadBytes_;
};

} // namespace f4t::core

#endif // F4T_CORE_PACKET_GENERATOR_HH
