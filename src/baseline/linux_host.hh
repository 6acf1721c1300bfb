/**
 * @file
 * The Linux TCP baseline host: the comparison system of Figs. 1, 8,
 * 10-13.
 *
 * One SoftTcpStack per CPU core (flows are partitioned per core as
 * RSS + SO_REUSEPORT would), with the calibrated Linux cost model
 * charging every stack operation to the owning core. Received packets
 * are demultiplexed by connection ownership; SYNs for listening ports
 * round-robin across cores.
 *
 * The host also provides the Fig. 12 latency jitter model: Linux
 * wakeups ride on scheduler/softirq timing with a heavy tail, which
 * the jitterDelay() sampler reproduces; the F4T library polls and has
 * none of it.
 */

#ifndef F4T_BASELINE_LINUX_HOST_HH
#define F4T_BASELINE_LINUX_HOST_HH

#include <memory>
#include <vector>

#include "host/cost_model.hh"
#include "host/cpu.hh"
#include "net/link.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "tcp/soft_tcp.hh"

namespace f4t::baseline
{

struct LinuxHostConfig
{
    net::Ipv4Address ip;
    net::MacAddress mac;
    std::size_t cores = 8;
    tcp::SoftCcAlgo cc = tcp::SoftCcAlgo::cubic; ///< Linux default
    bool chargeCosts = true;   ///< apply the calibrated cycle costs
    bool latencyJitter = true; ///< apply the Fig. 12 wakeup jitter
    std::uint64_t seed = 42;
    std::size_t sendBufBytes = 512 * 1024;
    std::size_t recvBufBytes = 512 * 1024;
};

class LinuxHost : public sim::SimObject, public net::PacketSink
{
  public:
    LinuxHost(sim::Simulation &sim, std::string name,
              const LinuxHostConfig &config);

    host::CpuCore &core(std::size_t i) { return cores_->core(i); }
    host::CpuComplex &cpu() { return *cores_; }
    tcp::SoftTcpStack &stack(std::size_t i) { return *stacks_.at(i); }

    /** Attach the transmit path of the NIC link. */
    void setTransmit(std::function<void(net::Packet &&)> tx);

    /** Static ARP entry (directly cabled testbed). */
    void addArpEntry(net::Ipv4Address ip, net::MacAddress mac);

    /** NIC receive path: demux to the owning core's stack. */
    void receivePacket(net::Packet &&pkt) override;

    /**
     * Sample the wakeup jitter applied between kernel readiness and
     * the application observing it (zero when jitter is disabled).
     */
    sim::Tick jitterDelay();

    const LinuxHostConfig &config() const { return config_; }

    /** Toggle the wakeup jitter model (e.g., off for client machines
     *  whose latency is not under study). */
    void setLatencyJitter(bool enabled) { config_.latencyJitter = enabled; }

  private:
    LinuxHostConfig config_;
    std::unique_ptr<host::CpuComplex> cores_;
    std::vector<std::unique_ptr<tcp::SoftTcpStack>> stacks_;
    std::size_t nextListenerCore_ = 0;
    sim::Random rng_;
};

} // namespace f4t::baseline

#endif // F4T_BASELINE_LINUX_HOST_HH
