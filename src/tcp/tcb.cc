#include "tcb.hh"

#include "sim/check.hh"

namespace f4t::tcp
{

const char *
toString(ConnState state)
{
    switch (state) {
      case ConnState::closed: return "CLOSED";
      case ConnState::listen: return "LISTEN";
      case ConnState::synSent: return "SYN_SENT";
      case ConnState::synRcvd: return "SYN_RCVD";
      case ConnState::established: return "ESTABLISHED";
      case ConnState::finWait1: return "FIN_WAIT_1";
      case ConnState::finWait2: return "FIN_WAIT_2";
      case ConnState::closing: return "CLOSING";
      case ConnState::timeWait: return "TIME_WAIT";
      case ConnState::closeWait: return "CLOSE_WAIT";
      case ConnState::lastAck: return "LAST_ACK";
    }
    return "?";
}

const char *
toString(TcpEventType type)
{
    switch (type) {
      case TcpEventType::userSend: return "userSend";
      case TcpEventType::userRecv: return "userRecv";
      case TcpEventType::userConnect: return "userConnect";
      case TcpEventType::userClose: return "userClose";
      case TcpEventType::rxSegment: return "rxSegment";
      case TcpEventType::timeout: return "timeout";
    }
    return "?";
}

Tcb
merge(const Tcb &stored, const EventRecord &events)
{
    Tcb tcb = stored;
    mergeInto(tcb, events);
    return tcb;
}

void
mergeInto(Tcb &tcb, const EventRecord &events)
{
    const std::uint32_t v = events.validMask;

    // Cumulative pointers: newer handler writes override, but never
    // backwards — a late FPU writeback can race a fresher handler
    // write, and cumulative semantics mean the maximum is correct.
    if (v & EventValid::req)
        tcb.req = net::seqMax(tcb.req, events.req);
    if (v & EventValid::userRead)
        tcb.userRead = net::seqMax(tcb.userRead, events.userRead);
    if (v & EventValid::peerAck)
        tcb.sndUna = net::seqMax(tcb.sndUna, events.peerAck);
    if (v & EventValid::rcvUpTo)
        tcb.rcvNxt = net::seqMax(tcb.rcvNxt, events.rcvUpTo);
    if (v & EventValid::peerWnd)
        tcb.sndWnd = events.peerWnd;
    if (v & EventValid::peerIsn) {
        tcb.irs = events.peerIsn;
        tcb.rcvNxt = events.peerIsn + 1;
        tcb.userRead = events.peerIsn + 1;
    }
    if (v & EventValid::dupAck) {
        std::uint32_t total = tcb.dupAcks + events.dupAckIncr;
        tcb.dupAcks = total > 255 ? 255 : static_cast<std::uint8_t>(total);
    }
    if (v & EventValid::flags)
        tcb.pendingFlags |= events.flags;
}

bool
accumulateEvent(EventRecord &record, const Tcb &stored,
                const TcpEvent &event)
{
    switch (event.type) {
      case TcpEventType::userSend:
        record.req = (record.validMask & EventValid::req)
                         ? net::seqMax(record.req, event.pointer)
                         : event.pointer;
        record.validMask |= EventValid::req;
        return false;

      case TcpEventType::userRecv:
        record.userRead = (record.validMask & EventValid::userRead)
                              ? net::seqMax(record.userRead, event.pointer)
                              : event.pointer;
        record.validMask |= EventValid::userRead;
        return false;

      case TcpEventType::userConnect:
        record.flags |= EventFlags::openRequest;
        record.validMask |= EventValid::flags;
        return false;

      case TcpEventType::userClose:
        record.flags |= EventFlags::closeRequest;
        record.validMask |= EventValid::flags;
        return false;

      case TcpEventType::timeout:
        switch (event.timeoutKind) {
          case TimeoutKind::retransmit:
            record.flags |= EventFlags::rtxTimeout;
            break;
          case TimeoutKind::probe:
            record.flags |= EventFlags::probeTimeout;
            break;
          case TimeoutKind::delayedAck:
            record.flags |= EventFlags::delAckTimeout;
            break;
          case TimeoutKind::timeWait:
            record.flags |= EventFlags::timeWaitTimeout;
            break;
        }
        record.validMask |= EventValid::flags;
        return false;

      case TcpEventType::rxSegment: {
        net::SeqNum cur_ack = (record.validMask & EventValid::peerAck)
                                  ? record.peerAck
                                  : stored.sndUna;
        std::uint32_t cur_wnd = (record.validMask & EventValid::peerWnd)
                                    ? record.peerWnd
                                    : stored.sndWnd;

        bool control = (event.tcpFlags &
                        (net::TcpFlags::syn | net::TcpFlags::fin |
                         net::TcpFlags::rst)) != 0;
        bool dup_ack = !control && !event.dataArrived &&
                       (event.tcpFlags & net::TcpFlags::ack) &&
                       event.peerAck == cur_ack &&
                       event.peerWnd == cur_wnd &&
                       net::seqGt(stored.sndNxt, cur_ack);

        if (dup_ack) {
            if (record.dupAckIncr < 255)
                ++record.dupAckIncr;
            record.validMask |= EventValid::dupAck;
            return true;
        }

        if (event.tcpFlags & net::TcpFlags::ack) {
            record.peerAck = (record.validMask & EventValid::peerAck)
                                 ? net::seqMax(record.peerAck,
                                               event.peerAck)
                                 : event.peerAck;
            record.validMask |= EventValid::peerAck;
            record.flags |= EventFlags::ackSeen;
            record.validMask |= EventValid::flags;
        }
        record.peerWnd = event.peerWnd;
        record.validMask |= EventValid::peerWnd;

        if (event.tcpFlags & net::TcpFlags::syn) {
            record.peerIsn = event.peerIsn;
            record.validMask |= EventValid::peerIsn;
            record.flags |= (event.tcpFlags & net::TcpFlags::ack)
                                ? EventFlags::synAckSeen
                                : EventFlags::synSeen;
            record.validMask |= EventValid::flags;
        }
        record.rcvUpTo = (record.validMask & EventValid::rcvUpTo)
                             ? net::seqMax(record.rcvUpTo, event.rcvUpTo)
                             : event.rcvUpTo;
        record.validMask |= EventValid::rcvUpTo;

        if (event.tcpFlags & net::TcpFlags::fin) {
            record.flags |= EventFlags::finSeen;
            record.validMask |= EventValid::flags;
        }
        if (event.tcpFlags & net::TcpFlags::rst) {
            record.flags |= EventFlags::rstSeen;
            record.validMask |= EventValid::flags;
        }
        if (event.dataArrived) {
            record.flags |= EventFlags::dataArrived;
            record.validMask |= EventValid::flags;
        }
        return false;
      }
    }
    return false;
}

void
checkTcbInvariants(const Tcb &tcb, const char *where)
{
    if constexpr (!sim::checksEnabled)
        return;
    (void)where;
    if (!stateSynchronized(tcb.state))
        return;
    F4T_CHECK(net::seqLeq(tcb.sndUna, tcb.sndNxt),
              "%s: flow %u (%s) sndUna %u ahead of sndNxt %u", where,
              tcb.flowId, toString(tcb.state), tcb.sndUna, tcb.sndNxt);
    F4T_CHECK(net::seqLeq(tcb.userRead, tcb.rcvNxt),
              "%s: flow %u (%s) userRead %u ahead of rcvNxt %u", where,
              tcb.flowId, toString(tcb.state), tcb.userRead, tcb.rcvNxt);
    F4T_CHECK(net::seqLeq(tcb.sndUnaProcessed, tcb.sndNxt),
              "%s: flow %u (%s) sndUnaProcessed %u ahead of sndNxt %u",
              where, tcb.flowId, toString(tcb.state), tcb.sndUnaProcessed,
              tcb.sndNxt);
}

bool
TcpEvent::canCoalesce(const TcpEvent &earlier, const TcpEvent &later)
{
    if (earlier.flow != later.flow || earlier.type != later.type)
        return false;

    switch (earlier.type) {
      case TcpEventType::userSend:
      case TcpEventType::userRecv:
        // Pure cumulative pointers always coalesce.
        return true;
      case TcpEventType::rxSegment:
        // Duplicate ACKs carry a count; merging would lose increments.
        if (earlier.isDupAck || later.isDupAck)
            return false;
        // Control flags must be delivered individually.
        if (earlier.tcpFlags & (net::TcpFlags::syn | net::TcpFlags::fin |
                                net::TcpFlags::rst))
            return false;
        if (later.tcpFlags & (net::TcpFlags::syn | net::TcpFlags::fin |
                              net::TcpFlags::rst))
            return false;
        // A later segment that advances no cumulative state is drop or
        // reordering evidence: either a duplicate ACK the RX parser
        // could not classify (no TCB access), or out-of-order payload
        // whose duplicate-ACK response the peer's fast retransmit
        // needs. Merging would lose exactly that information — the
        // paper's "only if there are no packet drops or reordering".
        if (later.peerAck == earlier.peerAck &&
            later.rcvUpTo == earlier.rcvUpTo) {
            return false;
        }
        // Cumulative state must be monotone (GRO-like: no reordering
        // or drop evidence between the two segments).
        return net::seqGeq(later.peerAck, earlier.peerAck) &&
               net::seqGeq(later.rcvUpTo, earlier.rcvUpTo);
      case TcpEventType::timeout:
        return earlier.timeoutKind == later.timeoutKind;
      case TcpEventType::userConnect:
      case TcpEventType::userClose:
        return true;
    }
    return false;
}

void
TcpEvent::coalesce(TcpEvent &earlier, const TcpEvent &later)
{
    switch (earlier.type) {
      case TcpEventType::userSend:
      case TcpEventType::userRecv:
        earlier.pointer = net::seqMax(earlier.pointer, later.pointer);
        break;
      case TcpEventType::rxSegment:
        earlier.peerAck = net::seqMax(earlier.peerAck, later.peerAck);
        earlier.rcvUpTo = net::seqMax(earlier.rcvUpTo, later.rcvUpTo);
        earlier.peerWnd = later.peerWnd;
        earlier.tcpFlags |= later.tcpFlags;
        earlier.dataArrived |= later.dataArrived;
        break;
      case TcpEventType::timeout:
      case TcpEventType::userConnect:
      case TcpEventType::userClose:
        break;
    }
}

} // namespace f4t::tcp
