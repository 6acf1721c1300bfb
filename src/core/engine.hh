/**
 * @file
 * FtEngine: the top-level FPGA TCP accelerator (Section 4.1, Fig. 3).
 *
 * Wires together the control path (host interface, RX parser event
 * generation, timers, scheduler, parallel FPCs, memory manager with
 * on-board DRAM/HBM) and the data path (packet generator, payload DMA,
 * ARP, ICMP). One FtEngine instance is one PCIe device attached to one
 * host and one network link.
 */

#ifndef F4T_CORE_ENGINE_HH
#define F4T_CORE_ENGINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/arp_icmp.hh"
#include "core/fpc.hh"
#include "core/host_interface.hh"
#include "core/memory_manager.hh"
#include "core/packet_generator.hh"
#include "core/rx_parser.hh"
#include "core/scheduler.hh"
#include "core/timer_wheel.hh"
#include "host/pcie.hh"
#include "mem/dram.hh"
#include "net/link.hh"
#include "sim/simulation.hh"
#include "tcp/congestion.hh"
#include "tcp/fpu_program.hh"

namespace f4t::core
{

struct EngineConfig
{
    net::Ipv4Address ip = net::Ipv4Address::fromOctets(10, 0, 0, 1);
    net::MacAddress mac{{0x02, 0xf4, 0x70, 0x00, 0x00, 0x01}};

    std::size_t numFpcs = 8;
    std::size_t flowsPerFpc = 128;
    std::size_t maxFlows = 65536;
    mem::DramConfig dram = mem::DramConfig::hbm();

    std::string congestionControl = "newreno";
    /** Shared TCP-logic tunables (TIME_WAIT). */
    tcp::FpuConfig fpu;

    bool payloadDma = true;

    std::size_t tcpBufferBytes = 512 * 1024;
    std::size_t tcbCacheLines = 1024;
    bool coalescingEnabled = true;
};

class FtEngine : public sim::SimObject, public net::PacketSink
{
  public:
    FtEngine(sim::Simulation &sim, std::string name,
             const EngineConfig &config);
    ~FtEngine() override;

    const EngineConfig &config() const { return config_; }

    /** Attach the network transmit side (LinkDirection::send). */
    void setTransmit(std::function<void(net::Packet &&)> tx);

    /** Static ARP entry for the directly cabled peer. */
    void addArpEntry(net::Ipv4Address ip, net::MacAddress mac);

    // --- network side -------------------------------------------------------
    void receivePacket(net::Packet &&pkt) override;

    // --- host side -----------------------------------------------------------
    host::PcieModel &pcie() { return pcie_; }
    HostInterface &hostInterface() { return *hostInterface_; }

    /** Translate and apply one host command (from the host interface). */
    void handleHostCommand(const host::Command &command, std::size_t queue);

    // --- synthetic benchmark hooks -------------------------------------------
    /**
     * Create a flow already in ESTABLISHED state with a wide-open
     * window — used by the event-rate microbenchmarks (Fig. 2 / 15 /
     * 16) that measure the processing architecture without a peer.
     */
    tcp::FlowId createSyntheticFlow(std::uint32_t peer_window = 1u << 30);

    /** Inject an event directly into the scheduler. */
    void injectEvent(const tcp::TcpEvent &event);

    /** Merged view of a flow's TCB wherever it lives (diagnostics:
     *  cwnd tracing for Fig. 14, tests). */
    tcp::Tcb peekTcb(tcp::FlowId flow);

    /** Deterministic transmit stream base for a flow (iss + 1). */
    static net::SeqNum txStart(tcp::FlowId flow)
    {
        return tcp::FpuProgram::initialSequence(flow) + 1;
    }

    // --- component access (benchmarks, tests, diagnostics) ----------------------
    Scheduler &scheduler() { return *scheduler_; }
    MemoryManager &memoryManager() { return *memoryManager_; }
    mem::DramModel &dram() { return *dram_; }
    RxParser &rxParser() { return *rxParser_; }
    PacketGenerator &packetGenerator() { return *packetGenerator_; }
    Fpc &fpc(std::size_t i) { return *fpcs_.at(i); }
    std::size_t fpcCount() const { return fpcs_.size(); }
    const tcp::FpuProgram &program() const { return *program_; }

    std::uint64_t flowsActive() const { return activeFlows_; }

  private:
    tcp::FlowId allocateFlowId();
    void recycleFlow(tcp::FlowId flow);
    tcp::FlowId acceptPassiveFlow(const net::FourTuple &tuple,
                                  net::MacAddress peer_mac);
    void openActiveFlow(const host::Command &command, std::size_t queue);
    void dispatchActions(tcp::FlowId flow, tcp::FpuActions &&actions);
    void onParsedEvent(const tcp::TcpEvent &event);
    FlowAddress addressFor(tcp::FlowId flow);
    tcp::Tcb freshTcb(tcp::FlowId flow, const net::FourTuple &tuple,
                      bool passive) const;

    struct FlowInfo
    {
        bool active = false;
        net::FourTuple tuple;
        net::MacAddress peerMac;
        net::SeqNum rxStart = 0;
        bool rxStartKnown = false;
        std::size_t queueIndex = 0;
        std::uint16_t cookie = 0;
        bool passive = false;
    };

    EngineConfig config_;

    host::PcieModel pcie_;
    std::unique_ptr<mem::DramModel> dram_;
    std::unique_ptr<tcp::CongestionControl> ccPolicy_;
    std::unique_ptr<tcp::FpuProgram> program_;
    std::vector<std::unique_ptr<Fpc>> fpcs_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<MemoryManager> memoryManager_;
    std::unique_ptr<RxParser::FlowLookup> flowTable_;
    std::unique_ptr<RxParser> rxParser_;
    std::unique_ptr<PacketGenerator> packetGenerator_;
    std::unique_ptr<TimerWheel> timerWheel_;
    std::unique_ptr<HostInterface> hostInterface_;
    std::unique_ptr<ArpModule> arp_;
    std::unique_ptr<IcmpModule> icmp_;

    std::function<void(net::Packet &&)> transmit_;

    std::vector<FlowInfo> flowInfo_;
    std::vector<tcp::FlowId> freeFlowIds_;
    std::uint64_t activeFlows_ = 0;
    std::uint16_t nextEphemeralPort_ = 40000;

    /** SO_REUSEPORT: listening queues per port, used round-robin. */
    std::map<std::uint16_t, std::vector<std::size_t>> listeners_;
    std::map<std::uint16_t, std::size_t> listenerNext_;

    sim::Counter flowsOpened_;
    sim::Counter flowsClosed_;
    sim::Counter synDropsNoListener_;
};

} // namespace f4t::core

#endif // F4T_CORE_ENGINE_HH
