#include "linux_host.hh"

namespace f4t::baseline
{

LinuxHost::LinuxHost(sim::Simulation &sim, std::string name,
                     const LinuxHostConfig &config)
    : SimObject(sim, std::move(name)), config_(config), rng_(config.seed)
{
    cores_ = std::make_unique<host::CpuComplex>(sim, statName("cpu"),
                                                config_.cores);

    for (std::size_t i = 0; i < config_.cores; ++i) {
        tcp::SoftTcpConfig stack_config;
        stack_config.ip = config_.ip;
        stack_config.mac = config_.mac;
        stack_config.cc = config_.cc;
        stack_config.sendBufBytes = config_.sendBufBytes;
        stack_config.recvBufBytes = config_.recvBufBytes;
        stack_config.ephemeralPortBase =
            static_cast<std::uint16_t>(32768 + i * 2048);
        stacks_.push_back(std::make_unique<tcp::SoftTcpStack>(
            sim, statName("stack" + std::to_string(i)), stack_config));
        if (config_.chargeCosts)
            stacks_.back()->setAccountant(&cores_->core(i));
    }
}

void
LinuxHost::setTransmit(std::function<void(net::Packet &&)> tx)
{
    for (auto &stack : stacks_)
        stack->setTransmit(tx);
}

void
LinuxHost::addArpEntry(net::Ipv4Address ip, net::MacAddress mac)
{
    for (auto &stack : stacks_)
        stack->addArpEntry(ip, mac);
}

void
LinuxHost::receivePacket(net::Packet &&pkt)
{
    if (!pkt.isTcp() || !pkt.ip)
        return;

    const net::TcpHeader &tcp = pkt.tcp();
    net::FourTuple tuple{pkt.ip->dst, tcp.dstPort, pkt.ip->src,
                         tcp.srcPort};

    for (auto &stack : stacks_) {
        if (stack->ownsTuple(tuple)) {
            stack->receivePacket(std::move(pkt));
            return;
        }
    }

    // New connection: SO_REUSEPORT spreads SYNs over listening cores.
    if (tcp.hasFlag(net::TcpFlags::syn) && !tcp.hasFlag(net::TcpFlags::ack)) {
        for (std::size_t k = 0; k < stacks_.size(); ++k) {
            std::size_t i = (nextListenerCore_ + k) % stacks_.size();
            if (stacks_[i]->listening(tcp.dstPort)) {
                nextListenerCore_ = i + 1;
                stacks_[i]->receivePacket(std::move(pkt));
                return;
            }
        }
    }
    // No owner and no listener: the first stack answers with RST.
    stacks_.front()->receivePacket(std::move(pkt));
}

sim::Tick
LinuxHost::jitterDelay()
{
    if (!config_.latencyJitter)
        return 0;
    using J = host::LinuxLatencyJitter;
    double us;
    if (rng_.chance(J::spikeProbability)) {
        us = J::spikeMinUs +
             rng_.uniform() * (J::spikeMaxUs - J::spikeMinUs);
    } else {
        // Log-normal around the median.
        us = rng_.logNormal(std::log(J::medianUs), J::sigma);
    }
    return sim::microsecondsToTicks(us);
}

} // namespace f4t::baseline
