#include "load/syn_flood.hh"

#include "net/headers.hh"

namespace f4t::load
{

namespace
{

/** Locally administered MAC the flood forges as its L2 source. */
constexpr net::MacAddress floodMac{{0x02, 0xf4, 0xba, 0xd0, 0x00, 0x01}};

} // namespace

SynFloodApp::SynFloodApp(sim::Simulation &sim, std::string name,
                         net::PacketSink &ingress,
                         const SynFloodConfig &config)
    : SimObject(sim, std::move(name)), ingress_(ingress), config_(config),
      sent_(sim.stats(), statName("sent"), "forged SYNs injected")
{
    f4t_assert(config_.synsPerSec > 0, "flood rate must be positive");
    gap_ = sim::secondsToTicks(1.0 / config_.synsPerSec);
    if (gap_ == 0)
        gap_ = 1;
}

void
SynFloodApp::start()
{
    queue().scheduleCallback(config_.startAt + gap_, sim::prof::Cat::app,
                             "synflood.inject", [this] { inject(); });
}

net::Ipv4Address
SynFloodApp::sourceIp(std::uint64_t index) const
{
    // 10.9.x.y, never .0 in the low octet; wraps after ~64k sources,
    // which combined with the rotating source port keeps every SYN's
    // 4-tuple unique far past any realistic flow-table size.
    return net::Ipv4Address::fromOctets(
        10, 9, static_cast<std::uint8_t>((index / 254) & 0xff),
        static_cast<std::uint8_t>(index % 254 + 1));
}

void
SynFloodApp::inject()
{
    std::uint64_t index = sent_.value();
    net::TcpHeader syn;
    syn.srcPort = static_cast<std::uint16_t>(1024 + index % 60000);
    syn.dstPort = targetPort;
    syn.seq = static_cast<net::SeqNum>(index * 2654435761ULL);
    syn.flags = net::TcpFlags::syn;
    syn.window = 65535;
    net::Packet pkt = net::Packet::makeTcp(floodMac, config_.targetMac,
                                           sourceIp(index), config_.target,
                                           syn);
    lastFlowHash_ = pkt.flowHash32();
    ++sent_;
    ingress_.receivePacket(std::move(pkt));

    queue().scheduleCallback(now() + gap_, sim::prof::Cat::app,
                             "synflood.inject", [this] { inject(); });
}

} // namespace f4t::load
