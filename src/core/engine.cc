#include "engine.hh"

namespace f4t::core
{

FtEngine::FtEngine(sim::Simulation &sim, std::string name,
                   const EngineConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      pcie_(sim, statName("pcie")),
      flowInfo_(config.maxFlows),
      flowsOpened_(sim.stats(), statName("flowsOpened"),
                   "flows allocated"),
      flowsClosed_(sim.stats(), statName("flowsClosed"), "flows recycled"),
      synDropsNoListener_(sim.stats(), statName("synDropsNoListener"),
                          "SYNs dropped: no listener")
{
    dram_ = std::make_unique<mem::DramModel>(sim, statName("dram"),
                                             config_.dram);
    ccPolicy_ = tcp::makeCongestionControl(config_.congestionControl);
    program_ = std::make_unique<tcp::FpuProgram>(*ccPolicy_, config_.fpu);

    FpcConfig fpc_config;
    fpc_config.slots = config_.flowsPerFpc;
    for (std::size_t i = 0; i < config_.numFpcs; ++i) {
        fpcs_.push_back(std::make_unique<Fpc>(
            sim, statName("fpc" + std::to_string(i)), sim.engineClock(),
            *program_, fpc_config));
        fpcs_.back()->setActionSink(
            [this](tcp::FlowId flow, tcp::FpuActions &&actions) {
                dispatchActions(flow, std::move(actions));
            });
    }

    SchedulerConfig sched_config;
    sched_config.maxFlows = config_.maxFlows;
    sched_config.coalescingEnabled = config_.coalescingEnabled;
    scheduler_ = std::make_unique<Scheduler>(sim, statName("scheduler"),
                                             sim.engineClock(),
                                             sched_config);
    std::vector<Fpc *> fpc_ptrs;
    for (auto &fpc : fpcs_)
        fpc_ptrs.push_back(fpc.get());
    scheduler_->attachFpcs(std::move(fpc_ptrs));

    MemoryManagerConfig mm_config;
    mm_config.cacheLines = config_.tcbCacheLines;
    memoryManager_ = std::make_unique<MemoryManager>(
        sim, statName("memoryManager"), sim.engineClock(), *dram_,
        mm_config);
    memoryManager_->setScheduler(scheduler_.get());
    scheduler_->attachMemoryManager(memoryManager_.get());

    flowTable_ = std::make_unique<RxParser::FlowLookup>(config_.maxFlows);

    RxParserConfig parser_config;
    parser_config.maxFlows = config_.maxFlows;
    parser_config.receiveBufferBytes = config_.tcpBufferBytes;
    rxParser_ = std::make_unique<RxParser>(sim, statName("rxParser"),
                                           *flowTable_, parser_config);
    rxParser_->setEventSink(
        [this](const tcp::TcpEvent &event) { onParsedEvent(event); });
    rxParser_->setSynHandler(
        [this](const net::FourTuple &tuple, net::MacAddress mac) {
            return acceptPassiveFlow(tuple, mac);
        });

    packetGenerator_ = std::make_unique<PacketGenerator>(
        sim, statName("packetGenerator"), sim.netClock());
    packetGenerator_->setAddressLookup(
        [this](tcp::FlowId flow) { return addressFor(flow); });

    timerWheel_ = std::make_unique<TimerWheel>(sim, statName("timers"));
    timerWheel_->setSink([this](const tcp::TcpEvent &event) {
        scheduler_->submitEvent(event);
    });

    HostInterfaceConfig host_config;
    host_config.payloadDma = config_.payloadDma;
    hostInterface_ = std::make_unique<HostInterface>(
        sim, statName("hostInterface"), pcie_, host_config);
    hostInterface_->setCommandHandler(
        [this](const host::Command &cmd, std::size_t queue) {
            handleHostCommand(cmd, queue);
        });
    rxParser_->setPayloadSink(hostInterface_.get());
    packetGenerator_->setPayloadSource(hostInterface_.get());

    arp_ = std::make_unique<ArpModule>(sim, statName("arp"), config_.ip,
                                       config_.mac);
    icmp_ = std::make_unique<IcmpModule>(sim, statName("icmp"), config_.ip,
                                         config_.mac);

    freeFlowIds_.reserve(config_.maxFlows);
    for (std::size_t i = config_.maxFlows; i > 0; --i)
        freeFlowIds_.push_back(static_cast<tcp::FlowId>(i - 1));
}

FtEngine::~FtEngine() = default;

void
FtEngine::setTransmit(std::function<void(net::Packet &&)> tx)
{
    transmit_ = std::move(tx);
    packetGenerator_->setTransmit(transmit_);
    arp_->setTransmit(transmit_);
    icmp_->setTransmit(transmit_);
}

void
FtEngine::addArpEntry(net::Ipv4Address ip, net::MacAddress mac)
{
    arp_->addStaticEntry(ip, mac);
}

void
FtEngine::receivePacket(net::Packet &&pkt)
{
    if (pkt.isArp()) {
        arp_->processPacket(pkt);
        return;
    }
    if (pkt.isIcmp()) {
        icmp_->processPacket(pkt);
        return;
    }
    if (pkt.isTcp() && pkt.ip && pkt.ip->dst == config_.ip) {
        rxParser_->processPacket(pkt);
        return;
    }
}

void
FtEngine::onParsedEvent(const tcp::TcpEvent &event)
{
    // Glue: the first SYN/SYN-ACK tells us the peer's sequence base,
    // which the payload DMA and notification offset conversion need.
    if (event.tcpFlags & net::TcpFlags::syn) {
        FlowInfo &info = flowInfo_[event.flow];
        if (!info.rxStartKnown) {
            info.rxStart = event.peerIsn + 1;
            info.rxStartKnown = true;
            hostInterface_->setRxStart(event.flow, info.rxStart);
        }
    }
    scheduler_->submitEvent(event);
}

tcp::FlowId
FtEngine::allocateFlowId()
{
    if (freeFlowIds_.empty())
        return tcp::invalidFlowId;
    tcp::FlowId flow = freeFlowIds_.back();
    freeFlowIds_.pop_back();
    ++activeFlows_;
    ++flowsOpened_;
    return flow;
}

tcp::Tcb
FtEngine::freshTcb(tcp::FlowId flow, const net::FourTuple &tuple,
                   bool passive) const
{
    tcp::Tcb tcb;
    tcb.flowId = flow;
    tcb.tuple = tuple;
    tcb.passiveOpen = passive;
    tcb.rcvBufBytes = static_cast<std::uint32_t>(config_.tcpBufferBytes);
    // Deterministic ISS lets the host library compute its stream base
    // without a round trip; the FPU re-derives the same value.
    tcb.iss = tcp::FpuProgram::initialSequence(flow);
    tcb.sndUna = tcb.iss;
    tcb.sndUnaProcessed = tcb.iss;
    tcb.sndNxt = tcb.iss + 1;
    tcb.req = tcb.iss + 1;
    tcb.lastAckNotified = tcb.iss + 1;
    return tcb;
}

tcp::FlowId
FtEngine::acceptPassiveFlow(const net::FourTuple &tuple,
                            net::MacAddress peer_mac)
{
    auto listener = listeners_.find(tuple.localPort);
    if (listener == listeners_.end() || listener->second.empty()) {
        ++synDropsNoListener_;
        return tcp::invalidFlowId;
    }

    tcp::FlowId flow = allocateFlowId();
    if (flow == tcp::invalidFlowId)
        return flow;

    if (!flowTable_->insert(tuple, flow)) {
        recycleFlow(flow);
        return tcp::invalidFlowId;
    }

    FlowInfo &info = flowInfo_[flow];
    info = FlowInfo{};
    info.active = true;
    info.tuple = tuple;
    info.peerMac = peer_mac;
    info.passive = true;

    // SO_REUSEPORT: distribute accepted flows round-robin over the
    // threads listening on this port (Section 4.6).
    auto &queues = listener->second;
    std::size_t &next = listenerNext_[tuple.localPort];
    info.queueIndex = queues[next % queues.size()];
    ++next;
    hostInterface_->setFlowQueue(flow, info.queueIndex);
    hostInterface_->setFlowSeqBase(flow, txStart(flow), 0);

    MigratingTcb fresh;
    fresh.tcb = freshTcb(flow, tuple, /*passive=*/true);
    scheduler_->allocateFlow(fresh);
    probe(sim::fr::Kind::engineAccept, flow, net::flowHash32(tuple),
          txStart(flow));
    return flow;
}

void
FtEngine::openActiveFlow(const host::Command &command, std::size_t queue)
{
    net::Ipv4Address remote_ip{command.arg0};
    std::uint16_t remote_port =
        static_cast<std::uint16_t>(command.arg1 >> 16);
    std::uint16_t cookie = static_cast<std::uint16_t>(command.arg1);

    tcp::FlowId flow = allocateFlowId();
    if (flow == tcp::invalidFlowId) {
        host::Command reject;
        reject.op = host::CmdOp::reset;
        reject.flow = tcp::invalidFlowId;
        reject.arg1 = cookie;
        hostInterface_->postCompletion(0, reject);
        return;
    }

    net::FourTuple tuple{config_.ip, nextEphemeralPort_++, remote_ip,
                         remote_port};
    auto peer_mac = arp_->resolve(remote_ip);
    if (!peer_mac) {
        // The testbed is directly cabled; unresolvable peers are a
        // configuration error, but issue the ARP request anyway.
        arp_->sendRequest(remote_ip);
        f4t_warn("%s: no ARP entry for %s", name().c_str(),
                 remote_ip.toString().c_str());
        recycleFlow(flow);
        return;
    }

    if (!flowTable_->insert(tuple, flow)) {
        recycleFlow(flow);
        return;
    }

    FlowInfo &info = flowInfo_[flow];
    info = FlowInfo{};
    info.active = true;
    info.tuple = tuple;
    info.peerMac = *peer_mac;
    info.queueIndex = queue;
    info.cookie = cookie;
    hostInterface_->setFlowQueue(flow, queue);
    hostInterface_->setFlowSeqBase(flow, txStart(flow), 0);

    MigratingTcb fresh;
    fresh.tcb = freshTcb(flow, tuple, /*passive=*/false);
    scheduler_->allocateFlow(fresh);
    probe(sim::fr::Kind::engineConnect, flow, net::flowHash32(tuple),
          txStart(flow));

    tcp::TcpEvent open;
    open.flow = flow;
    open.type = tcp::TcpEventType::userConnect;
    scheduler_->submitEvent(open);
}

void
FtEngine::handleHostCommand(const host::Command &command, std::size_t queue)
{
    switch (command.op) {
      case host::CmdOp::listen: {
        std::uint16_t port = static_cast<std::uint16_t>(command.arg0);
        listeners_[port].push_back(command.arg1);
        return;
      }
      case host::CmdOp::connect:
        openActiveFlow(command, queue);
        return;
      case host::CmdOp::send: {
        const FlowInfo &info = flowInfo_[command.flow];
        if (!info.active)
            return;
        tcp::TcpEvent event;
        event.flow = command.flow;
        event.type = tcp::TcpEventType::userSend;
        event.pointer = txStart(command.flow) + command.arg0;
        scheduler_->submitEvent(event);
        return;
      }
      case host::CmdOp::recv: {
        const FlowInfo &info = flowInfo_[command.flow];
        if (!info.active || !info.rxStartKnown)
            return;
        net::SeqNum pointer = info.rxStart + command.arg0;
        rxParser_->onUserRead(command.flow, pointer);
        tcp::TcpEvent event;
        event.flow = command.flow;
        event.type = tcp::TcpEventType::userRecv;
        event.pointer = pointer;
        scheduler_->submitEvent(event);
        return;
      }
      case host::CmdOp::close: {
        const FlowInfo &info = flowInfo_[command.flow];
        if (!info.active)
            return;
        tcp::TcpEvent event;
        event.flow = command.flow;
        event.type = tcp::TcpEventType::userClose;
        scheduler_->submitEvent(event);
        return;
      }
      default:
        f4t_panic("%s: unexpected host command op %s", name().c_str(),
                  host::toString(command.op));
    }
}

FlowAddress
FtEngine::addressFor(tcp::FlowId flow)
{
    const FlowInfo &info = flowInfo_[flow];
    f4t_assert(info.active, "address lookup for inactive flow %u", flow);
    return FlowAddress{info.tuple, config_.mac, info.peerMac};
}

void
FtEngine::dispatchActions(tcp::FlowId flow, tcp::FpuActions &&actions)
{
    FlowInfo &info = flowInfo_[flow];

    for (const tcp::TimerRequest &timer : actions.timers)
        timerWheel_->program(timer);

    for (const tcp::SegmentRequest &segment : actions.segments)
        packetGenerator_->requestSegments(segment);

    for (const tcp::ControlRequest &control : actions.controls)
        packetGenerator_->requestControl(control);

    for (const tcp::HostNotification &note : actions.notifications) {
        host::Command cmd;
        cmd.flow = flow;
        switch (note.kind) {
          case tcp::HostNotification::Kind::connected:
            cmd.op = info.passive ? host::CmdOp::accepted
                                  : host::CmdOp::connected;
            cmd.arg0 = 0; // stream offset base
            cmd.arg1 = info.passive ? info.tuple.localPort : info.cookie;
            break;
          case tcp::HostNotification::Kind::acked:
            cmd.op = host::CmdOp::acked;
            cmd.arg0 = note.pointer - txStart(flow);
            break;
          case tcp::HostNotification::Kind::received:
            cmd.op = host::CmdOp::received;
            cmd.arg0 = note.pointer - info.rxStart;
            probe(sim::fr::Kind::upcallPost, flow, cmd.arg0);
            break;
          case tcp::HostNotification::Kind::peerClosed:
            cmd.op = host::CmdOp::peerClosed;
            break;
          case tcp::HostNotification::Kind::closed:
            cmd.op = host::CmdOp::closed;
            break;
          case tcp::HostNotification::Kind::reset:
            cmd.op = host::CmdOp::reset;
            break;
        }
        hostInterface_->postCompletion(flow, cmd);
    }

    if (actions.releaseFlow)
        recycleFlow(flow);
}

void
FtEngine::recycleFlow(tcp::FlowId flow)
{
    FlowInfo &info = flowInfo_[flow];
    if (info.active) {
        flowTable_->erase(info.tuple);
        scheduler_->freeFlow(flow);
        rxParser_->dropFlow(flow);
        timerWheel_->cancelAll(flow);
        hostInterface_->dropFlow(flow);
        ++flowsClosed_;
        probe(sim::fr::Kind::engineRecycle, flow, activeFlows_ - 1);
    }
    info = FlowInfo{};
    freeFlowIds_.push_back(flow);
    if (activeFlows_ > 0)
        --activeFlows_;
}

tcp::FlowId
FtEngine::createSyntheticFlow(std::uint32_t peer_window)
{
    tcp::FlowId flow = allocateFlowId();
    f4t_assert(flow != tcp::invalidFlowId, "out of synthetic flow IDs");

    net::FourTuple tuple{config_.ip,
                         static_cast<std::uint16_t>(10000 + (flow % 50000)),
                         net::Ipv4Address::fromOctets(10, 0, 0, 254),
                         static_cast<std::uint16_t>(20000 + (flow % 40000))};

    FlowInfo &info = flowInfo_[flow];
    info = FlowInfo{};
    info.active = true;
    info.tuple = tuple;
    info.peerMac = net::MacAddress{{0x02, 0, 0, 0, 0, 0xfe}};
    info.rxStart = 1;
    info.rxStartKnown = true;

    tcp::Tcb tcb = freshTcb(flow, tuple, /*passive=*/false);
    tcb.state = tcp::ConnState::established;
    tcb.sndWnd = peer_window;
    tcb.cwnd = peer_window;
    tcb.ssthresh = peer_window;
    tcb.ccPhase = tcp::CcPhase::congestionAvoidance;
    tcb.irs = 0;
    tcb.rcvNxt = 1;
    tcb.userRead = 1;
    tcb.lastAckSent = 1;
    tcb.lastRcvNotified = 1;
    tcb.lastWndAdvertised = 1 + tcb.receiveWindow();

    MigratingTcb fresh;
    fresh.tcb = tcb;
    scheduler_->allocateFlow(fresh);
    return flow;
}

void
FtEngine::injectEvent(const tcp::TcpEvent &event)
{
    scheduler_->submitEvent(event);
}

tcp::Tcb
FtEngine::peekTcb(tcp::FlowId flow)
{
    Location loc = scheduler_->location(flow);
    switch (loc.kind) {
      case Location::Kind::fpc:
        return fpcs_[loc.fpcIndex]->peekMergedTcb(flow);
      case Location::Kind::dram:
        return memoryManager_->peekMergedTcb(flow);
      default:
        // Mid-migration or unallocated: return an empty TCB; tracing
        // callers sample again on the next interval.
        return tcp::Tcb{};
    }
}

} // namespace f4t::core
