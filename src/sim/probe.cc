#include "probe.hh"

#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/simulation.hh"

namespace f4t::sim::probe
{

namespace
{

using fr::Kind;

/* Indexed by Kind. Enum-valued words (link_fault's fault, the timer
 * kind, sched_migrate's route, soft_tcp_state's states) are listed
 * with their codes in DESIGN.md §10. */
constexpr KindInfo rows[] = {
    {Kind::none, "none", nullptr, "a", "b"},
    {Kind::evDispatch, "ev_dispatch", nullptr, "priority", "seq"},
    {Kind::fpcUserSend, "fpc_user_send", "event", "cycle", "pointer"},
    {Kind::fpcUserRecv, "fpc_user_recv", "event", "cycle", "pointer"},
    {Kind::fpcUserConnect, "fpc_user_connect", "event", "cycle", nullptr},
    {Kind::fpcUserClose, "fpc_user_close", "event", "cycle", nullptr},
    {Kind::fpcRxSegment, "fpc_rx_segment", "event", "cycle", "rcv_up_to"},
    {Kind::fpcTimeout, "fpc_timeout", "event", "cycle", nullptr},
    {Kind::fpcInstall, "fpc_install", "migration", "slot", nullptr},
    {Kind::fpcEvict, "fpc_evict", "migration", "slot", nullptr},
    {Kind::schedMigrate, "sched_migrate", "migration", "dur_ps", "route"},
    {Kind::schedEvict, "sched_evict", nullptr, "fpc", "to_dram"},
    {Kind::linkTx, "link_tx", nullptr, "wire_bytes", "seq"},
    {Kind::linkFault, "link_fault", "fault", "fault", "delay_ps"},
    {Kind::switchEnqueue, "switch_enqueue", nullptr, "port", "queued_bytes"},
    {Kind::switchDrop, "switch_drop", nullptr, "port", "pool_bytes"},
    {Kind::switchForward, "switch_forward", nullptr, "port", "wire_bytes"},
    {Kind::pcieDma, "pcie_dma", "dma", "bytes", "d2h"},
    {Kind::pcieDoorbell, "pcie_doorbell", "mmio", nullptr, nullptr},
    {Kind::parBarrier, "par_barrier", nullptr, "window", "end_tick"},
    {Kind::mark, "mark", nullptr, "a", "b"},
    {Kind::rxParse, "rx_parse", nullptr, "seq", "payload"},
    {Kind::rxDropUnknown, "rx_drop_unknown", "drop", "src_port", "dst_port"},
    {Kind::rxSynReject, "rx_syn_reject", "drop", "src_port", "dst_port"},
    {Kind::rxOooDrop, "rx_ooo_drop", "drop", "seq", "payload"},
    {Kind::pktgenSegment, "pktgen_segment", nullptr, "seq", "len"},
    {Kind::pktgenRetransmit, "pktgen_retransmit", "retransmit", "seq",
     "len"},
    {Kind::pktgenControl, "pktgen_control", nullptr, "seq", "ack"},
    {Kind::fpuPass, "fpu_pass", "fpu", "slot", "evict_pending"},
    {Kind::memCacheMiss, "mem_cache_miss", nullptr, nullptr, nullptr},
    {Kind::memInsert, "mem_insert", nullptr, "resident", nullptr},
    {Kind::memExtract, "mem_extract", nullptr, "resident", nullptr},
    {Kind::memSwapRequest, "mem_swap_request", "migration", nullptr,
     nullptr},
    {Kind::schedAllocDram, "sched_alloc_dram", nullptr, nullptr, nullptr},
    {Kind::schedRebalance, "sched_rebalance", nullptr, "from_fpc",
     "to_fpc"},
    {Kind::schedSwapIn, "sched_swap_in", nullptr, "to_fpc", nullptr},
    {Kind::engineAccept, "engine_accept", "flow", "tuple_hash", "tx_start"},
    {Kind::engineConnect, "engine_connect", "flow", "tuple_hash",
     "tx_start"},
    {Kind::engineRecycle, "engine_recycle", "flow", "active", nullptr},
    {Kind::timerFire, "timer_fire", "timer", "timer", nullptr},
    {Kind::softTcpState, "soft_tcp_state", "conn", "from", "to"},
    {Kind::libSend, "lib_send", nullptr, "offset", nullptr},
    {Kind::libDeliver, "lib_deliver", nullptr, "offset", nullptr},
    {Kind::hifFetch, "hif_fetch", nullptr, "offset", "fetch_start"},
    {Kind::hifFlush, "hif_flush", nullptr, "offset", nullptr},
    {Kind::upcallPost, "upcall_post", nullptr, "offset", nullptr},
    {Kind::fpuIssue, "fpu_issue", nullptr, "req", "rcv_nxt"},
};

constexpr bool
rowsCoverEveryKind()
{
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        if (static_cast<std::size_t>(rows[i].kind) != i)
            return false;
    }
    return std::size(rows) == fr::numKinds;
}
static_assert(rowsCoverEveryKind(),
              "probe rows must list every kind in order");

constexpr KindInfo unknownRow = {Kind::numKinds, "unknown", nullptr, "a",
                                 "b"};

} // namespace

const KindInfo &
info(std::uint8_t kind)
{
    return kind < std::size(rows) ? rows[kind] : unknownRow;
}

std::string
format(const fr::Record &rec)
{
    const KindInfo &row = info(rec.kind);
    char buf[96];
    int n = std::snprintf(buf, sizeof buf, "%s flow=%08x", row.name,
                          rec.flow);
    std::string text(buf, static_cast<std::size_t>(n));
    for (auto [label, value] : {std::pair{row.a, rec.a},
                                std::pair{row.b, rec.b}}) {
        if (label == nullptr)
            continue;
        n = std::snprintf(buf, sizeof buf, " %s=%llu", label,
                          static_cast<unsigned long long>(value));
        text.append(buf, static_cast<std::size_t>(n));
    }
    return text;
}

} // namespace f4t::sim::probe

namespace f4t::sim
{

void
SimObject::showProbe(const fr::Record &rec, Tick start, Tick end, bool span)
{
    if (std::vector<fr::Record> *records = sim_.capture())
        records->push_back(rec);
    bool text = trace::selected(static_cast<fr::Kind>(rec.kind));
    trace::TraceEventSink *tl = sim_.timeline();
    const char *category =
        tl != nullptr ? probe::info(rec.kind).category : nullptr;
    if (!text && category == nullptr)
        return;
    std::string body = probe::format(rec);
    if (text)
        trace::detail::emit(rec.tick, name_, body);
    if (category == nullptr)
        return;
    if (span)
        tl->span(name_, category, std::move(body), start, end);
    else
        tl->instant(name_, category, std::move(body), rec.tick);
}

} // namespace f4t::sim
