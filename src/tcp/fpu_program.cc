#include "fpu_program.hh"

#include "sim/logging.hh"

namespace f4t::tcp
{

using net::seqDiff;
using net::seqGeq;
using net::seqGt;
using net::seqLeq;
using net::seqLt;
using net::SeqNum;
using net::TcpFlags;

net::SeqNum
FpuProgram::initialSequence(FlowId flow)
{
    // Deterministic ISN so the host library can compute the same
    // sequence-space base without a round trip.
    std::uint64_t x = (static_cast<std::uint64_t>(flow) + 1) *
                      0x9e3779b97f4a7c15ULL;
    x ^= x >> 31;
    return static_cast<SeqNum>(x);
}

bool
FpuProgram::tcbNeedsProcessing(const Tcb &merged)
{
    // Any control flag demands a pass (handshake, close, timeout, ...).
    if (merged.pendingFlags != 0)
        return true;

    // Fresh duplicate ACKs drive fast retransmit / recovery.
    if (merged.dupAcks != merged.dupAcksSeen)
        return true;

    // A cumulative ACK the FPU has not acted on yet.
    if (merged.sndUna != merged.sndUnaProcessed)
        return true;

    // Data waiting and window open.
    bool can_send = merged.state == ConnState::established ||
                    merged.state == ConnState::closeWait;
    if (can_send && seqGt(merged.req, merged.sndNxt) &&
        merged.effectiveWindow() > merged.bytesInFlight()) {
        return true;
    }
    // Data waiting behind a zero window with no persist timer armed:
    // a pass is needed to start probing, or the flow could deadlock.
    if (can_send && seqGt(merged.req, merged.sndNxt) &&
        merged.sndWnd == 0 && merged.probeDeadlineUs == 0) {
        return true;
    }

    // Received data not yet acknowledged or not yet reported.
    if (seqGt(merged.rcvNxt, merged.lastAckSent))
        return true;
    SeqNum data_boundary = merged.rcvNxt - (merged.peerFinSeen ? 1 : 0);
    if (merged.state != ConnState::closed &&
        merged.state != ConnState::synSent &&
        merged.state != ConnState::synRcvd &&
        seqGt(data_boundary, merged.lastRcvNotified)) {
        return true;
    }

    // A recv() opened a window the peer believes is closed.
    SeqNum new_edge = merged.rcvNxt + merged.receiveWindow();
    std::int32_t growth = seqDiff(new_edge, merged.lastWndAdvertised);
    std::int32_t peer_view = seqDiff(merged.lastWndAdvertised,
                                     merged.rcvNxt);
    if (growth >= static_cast<std::int32_t>(merged.mss) &&
        peer_view < static_cast<std::int32_t>(merged.mss)) {
        return true;
    }

    return false;
}

void
FpuProgram::process(Tcb &tcb, std::uint64_t now_us, FpuActions &actions) const
{
    const std::uint32_t flags = tcb.pendingFlags;
    tcb.pendingFlags = 0;

    // A reset aborts everything immediately.
    if (flags & EventFlags::rstSeen) {
        if (tcb.state != ConnState::closed) {
            tcb.state = ConnState::closed;
            actions.notifications.push_back(
                {tcb.flowId, HostNotification::Kind::reset, 0});
        }
        cancelRtx(tcb, actions);
        actions.timers.push_back({tcb.flowId, TimeoutKind::probe, 0});
        actions.releaseFlow = true;
        return;
    }

    processFlags(tcb, flags, now_us, actions);
    if (tcb.state == ConnState::closed && actions.releaseFlow)
        return;

    processAck(tcb, now_us, actions);

    if (flags & EventFlags::rtxTimeout)
        handleRto(tcb, now_us, actions);

    if (flags & EventFlags::probeTimeout) {
        bool data_waiting = seqGt(tcb.req, tcb.sndNxt) ||
                            tcb.bytesInFlight() > 0;
        if (tcb.sndWnd == 0 && data_waiting &&
            tcb.state == ConnState::established) {
            ControlRequest probe;
            probe.flow = tcb.flowId;
            probe.flags = TcpFlags::ack;
            probe.seq = tcb.sndNxt;
            probe.ack = tcb.rcvNxt;
            probe.window = tcb.receiveWindow();
            probe.windowProbe = true;
            actions.controls.push_back(probe);
            tcb.probeDeadlineUs = now_us + probeIntervalUs;
            actions.timers.push_back(
                {tcb.flowId, TimeoutKind::probe, tcb.probeDeadlineUs});
        }
    }

    if (flags & EventFlags::timeWaitTimeout &&
        tcb.state == ConnState::timeWait) {
        tcb.state = ConnState::closed;
        actions.notifications.push_back(
            {tcb.flowId, HostNotification::Kind::closed, 0});
        actions.releaseFlow = true;
        return;
    }

    // The window reopened: stop probing.
    if (tcb.sndWnd > 0 && tcb.probeDeadlineUs != 0) {
        tcb.probeDeadlineUs = 0;
        actions.timers.push_back({tcb.flowId, TimeoutKind::probe, 0});
    }

    const std::size_t segments_before = actions.segments.size();
    sendData(tcb, now_us, actions);
    maybeSendFin(tcb, actions);
    bool sent_data = actions.segments.size() > segments_before;

    // Payload arrived without advancing rcvNxt (out-of-order or
    // duplicate): emit the duplicate ACK the peer's fast retransmit
    // relies on.
    bool force_ack = (flags & EventFlags::dataArrived) != 0;
    sendAckIfNeeded(tcb, sent_data, force_ack, actions);
    notifyHost(tcb, actions);
    manageTimers(tcb, now_us, actions);

    tcb.lastActiveCycle = now_us;
}

void
FpuProgram::processFlags(Tcb &tcb, std::uint32_t flags, std::uint64_t now_us,
                         FpuActions &actions) const
{
    // --- active open -----------------------------------------------------
    if ((flags & EventFlags::openRequest) &&
        tcb.state == ConnState::closed && !tcb.passiveOpen) {
        tcb.iss = initialSequence(tcb.flowId);
        tcb.sndUna = tcb.iss;
        tcb.sndUnaProcessed = tcb.iss;
        tcb.sndNxt = tcb.iss + 1; // the SYN consumes one sequence number
        tcb.req = tcb.iss + 1;
        cc_.onInit(tcb);
        tcb.state = ConnState::synSent;

        ControlRequest syn;
        syn.flow = tcb.flowId;
        syn.flags = TcpFlags::syn;
        syn.seq = tcb.iss;
        syn.window = tcb.receiveWindow();
        syn.mssOption = tcb.mss;
        actions.controls.push_back(syn);
        // RFC 6298: the first RTT measurement comes from the SYN
        // exchange, so the very first data RTO uses a measured
        // estimate instead of the conservative initial rtoUs.
        tcb.rttSampling = true;
        tcb.rttSampleSeq = tcb.iss + 1;
        tcb.rttSampleStartUs = now_us;
        armRtx(tcb, now_us, actions);
    }

    // --- SYN from the peer -------------------------------------------------
    if (flags & EventFlags::synSeen) {
        if (tcb.state == ConnState::closed && tcb.passiveOpen) {
            // merge() already applied the peer ISN (rcvNxt = irs + 1).
            tcb.iss = initialSequence(tcb.flowId);
            tcb.sndUna = tcb.iss;
            tcb.sndUnaProcessed = tcb.iss;
            tcb.sndNxt = tcb.iss + 1;
            tcb.req = tcb.iss + 1;
            cc_.onInit(tcb);
            tcb.state = ConnState::synRcvd;
        }
        if (tcb.state == ConnState::synRcvd) {
            // First SYN-ACK, or a retransmission when ours was lost.
            ControlRequest synack;
            synack.flow = tcb.flowId;
            synack.flags = TcpFlags::syn | TcpFlags::ack;
            synack.seq = tcb.iss;
            synack.ack = tcb.rcvNxt;
            synack.window = tcb.receiveWindow();
            synack.mssOption = tcb.mss;
            actions.controls.push_back(synack);
            tcb.lastAckSent = tcb.rcvNxt;
            tcb.lastWndAdvertised = tcb.rcvNxt + synack.window;
            // Measure the handshake RTT from the latest SYN-ACK
            // transmission; a restart on a duplicate-SYN resend can
            // only underestimate, and the minRtoUs floor absorbs that.
            tcb.rttSampling = true;
            tcb.rttSampleSeq = tcb.iss + 1;
            tcb.rttSampleStartUs = now_us;
            armRtx(tcb, now_us, actions);
        } else if (tcb.state == ConnState::established) {
            // Duplicate SYN after establishment: re-ACK.
            tcb.lastAckSent = tcb.rcvNxt - 1; // force an ACK below
        }
    }

    // --- SYN-ACK completing an active open ---------------------------------
    if ((flags & EventFlags::synAckSeen) &&
        tcb.state == ConnState::synSent &&
        seqGeq(tcb.sndUna, tcb.iss + 1)) {
        // enterEstablished advances sndUnaProcessed, so processAck
        // will see acked == 0 for the handshake — take the SYN
        // exchange's RTT sample here or it is silently lost.
        updateRtt(tcb, now_us);
        enterEstablished(tcb, actions);
        ControlRequest ack;
        ack.flow = tcb.flowId;
        ack.flags = TcpFlags::ack;
        ack.seq = tcb.sndNxt;
        ack.ack = tcb.rcvNxt;
        ack.window = tcb.receiveWindow();
        actions.controls.push_back(ack);
        tcb.lastAckSent = tcb.rcvNxt;
        tcb.lastWndAdvertised = tcb.rcvNxt + ack.window;
    }

    // --- FIN from the peer --------------------------------------------------
    if ((flags & EventFlags::finSeen) && !tcb.peerFinSeen) {
        tcb.peerFinSeen = true;
        switch (tcb.state) {
          case ConnState::established:
            tcb.state = ConnState::closeWait;
            actions.notifications.push_back(
                {tcb.flowId, HostNotification::Kind::peerClosed,
                 tcb.rcvNxt - 1});
            break;
          case ConnState::finWait1:
            // Our FIN not yet acknowledged (checked in processAck).
            tcb.state = ConnState::closing;
            actions.notifications.push_back(
                {tcb.flowId, HostNotification::Kind::peerClosed,
                 tcb.rcvNxt - 1});
            break;
          case ConnState::finWait2:
            tcb.state = ConnState::timeWait;
            actions.notifications.push_back(
                {tcb.flowId, HostNotification::Kind::peerClosed,
                 tcb.rcvNxt - 1});
            actions.timers.push_back({tcb.flowId, TimeoutKind::timeWait,
                                      now_us + config_.timeWaitUs});
            break;
          default:
            break;
        }
    }

    // --- user close ----------------------------------------------------------
    if (flags & EventFlags::closeRequest)
        tcb.closeRequested = true;
}

void
FpuProgram::processAck(Tcb &tcb, std::uint64_t now_us,
                       FpuActions &actions) const
{
    // SYN_RCVD completes when our SYN is acknowledged.
    if (tcb.state == ConnState::synRcvd && seqGeq(tcb.sndUna, tcb.iss + 1)) {
        updateRtt(tcb, now_us); // SYN-ACK RTT sample (see processFlags)
        enterEstablished(tcb, actions);
    }

    if (tcb.state != ConnState::established &&
        tcb.state != ConnState::finWait1 &&
        tcb.state != ConnState::finWait2 &&
        tcb.state != ConnState::closing &&
        tcb.state != ConnState::closeWait &&
        tcb.state != ConnState::lastAck) {
        return;
    }

    // Invariant maintenance: a cumulative ACK beyond snd.nxt cannot
    // come from a correct peer (RFC 793 says ignore it); clamping
    // keeps bytesInFlight() well defined whatever arrives.
    if (seqGt(tcb.sndUna, tcb.sndNxt))
        tcb.sndNxt = tcb.sndUna;

    std::int32_t acked = seqDiff(tcb.sndUna, tcb.sndUnaProcessed);
    if (acked > 0) {
        std::uint32_t acked_bytes = static_cast<std::uint32_t>(acked);
        updateRtt(tcb, now_us);
        tcb.rtxBackoff = 0;

        if (tcb.ccPhase == CcPhase::fastRecovery) {
            if (seqGeq(tcb.sndUna, tcb.recover)) {
                cc_.onExitRecovery(tcb);
                tcb.dupAcksSeen = 0;
            } else {
                // Partial ACK: retransmit the next hole immediately.
                cc_.onPartialAck(tcb, acked_bytes);
                SegmentRequest rtx;
                rtx.flow = tcb.flowId;
                rtx.seq = tcb.sndUna;
                std::int32_t outstanding = seqDiff(tcb.sndNxt, tcb.sndUna);
                rtx.length = static_cast<std::uint32_t>(
                    outstanding < static_cast<std::int32_t>(tcb.mss)
                        ? outstanding
                        : tcb.mss);
                rtx.ack = tcb.rcvNxt;
                rtx.window = tcb.receiveWindow();
                rtx.retransmission = true;
                if (rtx.length > 0)
                    actions.segments.push_back(rtx);
            }
        } else {
            cc_.onAck(tcb, acked_bytes, tcb.lastRttUs, now_us);
            tcb.dupAcks = 0;
            tcb.dupAcksSeen = 0;
            // Post-RTO go-back-N: handleRto retransmits only the first
            // unacknowledged segment, so each cumulative ACK below the
            // recovery point resends the next hole. Without this, a
            // multi-segment tail loss (incast burst clipped by a
            // switch queue) recovers one segment per backed-off RTO.
            if (tcb.rtoRecovery) {
                if (seqGeq(tcb.sndUna, tcb.recover)) {
                    tcb.rtoRecovery = false;
                } else {
                    std::int32_t outstanding =
                        seqDiff(tcb.sndNxt, tcb.sndUna);
                    std::uint32_t data_outstanding =
                        static_cast<std::uint32_t>(
                            outstanding -
                            ((tcb.finSent && seqLeq(tcb.sndUna, tcb.finSeq))
                                 ? 1
                                 : 0));
                    SegmentRequest rtx;
                    rtx.flow = tcb.flowId;
                    rtx.seq = tcb.sndUna;
                    rtx.length = data_outstanding < tcb.mss
                                     ? data_outstanding
                                     : tcb.mss;
                    rtx.ack = tcb.rcvNxt;
                    rtx.window = tcb.receiveWindow();
                    rtx.retransmission = true;
                    if (rtx.length > 0)
                        actions.segments.push_back(rtx);
                }
            }
        }
        tcb.sndUnaProcessed = tcb.sndUna;

        // Our FIN got acknowledged?
        if (tcb.finSent && seqGt(tcb.sndUna, tcb.finSeq)) {
            switch (tcb.state) {
              case ConnState::finWait1:
                tcb.state = ConnState::finWait2;
                break;
              case ConnState::closing:
                tcb.state = ConnState::timeWait;
                actions.timers.push_back({tcb.flowId, TimeoutKind::timeWait,
                                          now_us + config_.timeWaitUs});
                break;
              case ConnState::lastAck:
                tcb.state = ConnState::closed;
                cancelRtx(tcb, actions);
                actions.notifications.push_back(
                    {tcb.flowId, HostNotification::Kind::closed, 0});
                actions.releaseFlow = true;
                return;
              default:
                break;
            }
        }
    }

    // Duplicate ACK handling. The event handler counted increments; a
    // stateless pass compares against the count it last acted on.
    if (tcb.dupAcks > tcb.dupAcksSeen) {
        std::uint8_t fresh = tcb.dupAcks - tcb.dupAcksSeen;
        if (tcb.ccPhase == CcPhase::fastRecovery) {
            for (std::uint8_t i = 0; i < fresh; ++i)
                cc_.onDupAckInRecovery(tcb);
        } else if (tcb.dupAcks >= dupAckThreshold &&
                   seqGt(tcb.sndNxt, tcb.sndUna) &&
                   seqGeq(tcb.sndUna, tcb.recover)) {
            // Enter fast retransmit / recovery (NewReno: only when the
            // ACK is past the previous recovery point).
            cc_.onEnterRecovery(tcb, now_us);
            tcb.recover = tcb.sndNxt;
            tcb.rttSampling = false; // Karn's rule

            SegmentRequest rtx;
            rtx.flow = tcb.flowId;
            rtx.seq = tcb.sndUna;
            std::int32_t outstanding = seqDiff(tcb.sndNxt, tcb.sndUna);
            rtx.length = static_cast<std::uint32_t>(
                outstanding < static_cast<std::int32_t>(tcb.mss)
                    ? outstanding
                    : tcb.mss);
            rtx.ack = tcb.rcvNxt;
            rtx.window = tcb.receiveWindow();
            rtx.retransmission = true;
            actions.segments.push_back(rtx);
        }
        tcb.dupAcksSeen = tcb.dupAcks;
    }
}

void
FpuProgram::updateRtt(Tcb &tcb, std::uint64_t now_us) const
{
    if (!tcb.rttSampling || seqLt(tcb.sndUna, tcb.rttSampleSeq))
        return;
    tcb.rttSampling = false;
    std::uint64_t sample = now_us - tcb.rttSampleStartUs;
    std::uint32_t rtt = sample > 0xffffffffULL
                            ? 0xffffffffU
                            : static_cast<std::uint32_t>(sample);
    if (rtt == 0)
        rtt = 1;
    tcb.lastRttUs = rtt;
    if (tcb.minRttUs == 0 || rtt < tcb.minRttUs)
        tcb.minRttUs = rtt;

    if (tcb.srttUs == 0) {
        tcb.srttUs = rtt;
        tcb.rttvarUs = rtt / 2;
    } else {
        // RFC 6298 with alpha = 1/8, beta = 1/4.
        std::int64_t err = static_cast<std::int64_t>(rtt) - tcb.srttUs;
        std::int64_t abs_err = err < 0 ? -err : err;
        tcb.rttvarUs = static_cast<std::uint32_t>(
            (3 * static_cast<std::int64_t>(tcb.rttvarUs) + abs_err) / 4);
        tcb.srttUs = static_cast<std::uint32_t>(
            (7 * static_cast<std::int64_t>(tcb.srttUs) + rtt) / 8);
    }
    std::uint64_t rto =
        tcb.srttUs + std::max<std::uint32_t>(minRtoUs / 2, 4 * tcb.rttvarUs);
    if (rto < minRtoUs)
        rto = minRtoUs;
    if (rto > maxRtoUs)
        rto = maxRtoUs;
    tcb.rtoUs = static_cast<std::uint32_t>(rto);
}

void
FpuProgram::handleRto(Tcb &tcb, std::uint64_t now_us,
                      FpuActions &actions) const
{
    switch (tcb.state) {
      case ConnState::synSent: {
        ControlRequest syn;
        syn.flow = tcb.flowId;
        syn.flags = TcpFlags::syn;
        syn.seq = tcb.iss;
        syn.window = tcb.receiveWindow();
        syn.mssOption = tcb.mss;
        actions.controls.push_back(syn);
        tcb.rttSampling = false; // Karn's rule
        ++tcb.rtxBackoff;
        armRtx(tcb, now_us, actions);
        return;
      }
      case ConnState::synRcvd: {
        ControlRequest synack;
        synack.flow = tcb.flowId;
        synack.flags = TcpFlags::syn | TcpFlags::ack;
        synack.seq = tcb.iss;
        synack.ack = tcb.rcvNxt;
        synack.window = tcb.receiveWindow();
        synack.mssOption = tcb.mss;
        actions.controls.push_back(synack);
        tcb.rttSampling = false; // Karn's rule
        ++tcb.rtxBackoff;
        armRtx(tcb, now_us, actions);
        return;
      }
      default:
        break;
    }

    if (tcb.bytesInFlight() == 0)
        return; // stale timeout: everything already acknowledged

    cc_.onTimeout(tcb, now_us);
    tcb.recover = tcb.sndNxt;
    tcb.rtoRecovery = true;
    tcb.dupAcksSeen = tcb.dupAcks;
    tcb.rttSampling = false; // Karn's rule
    ++tcb.rtxBackoff;

    // Retransmit the first unacknowledged segment (go-back-N recovery
    // is then driven by returning ACKs).
    std::int32_t outstanding = seqDiff(tcb.sndNxt, tcb.sndUna);
    bool fin_only = tcb.finSent && seqGeq(tcb.sndUna, tcb.finSeq) &&
                    outstanding == 1;
    if (fin_only) {
        ControlRequest fin;
        fin.flow = tcb.flowId;
        fin.flags = TcpFlags::fin | TcpFlags::ack;
        fin.seq = tcb.finSeq;
        fin.ack = tcb.rcvNxt;
        fin.window = tcb.receiveWindow();
        actions.controls.push_back(fin);
    } else {
        SegmentRequest rtx;
        rtx.flow = tcb.flowId;
        rtx.seq = tcb.sndUna;
        std::uint32_t data_outstanding = static_cast<std::uint32_t>(
            outstanding - ((tcb.finSent && seqLeq(tcb.sndUna, tcb.finSeq))
                               ? 1
                               : 0));
        rtx.length = data_outstanding < tcb.mss ? data_outstanding
                                                : tcb.mss;
        rtx.ack = tcb.rcvNxt;
        rtx.window = tcb.receiveWindow();
        rtx.retransmission = true;
        if (rtx.length > 0)
            actions.segments.push_back(rtx);
    }
    armRtx(tcb, now_us, actions);
}

void
FpuProgram::enterEstablished(Tcb &tcb, FpuActions &actions) const
{
    tcb.state = ConnState::established;
    tcb.sndUnaProcessed = tcb.sndUna;
    // Watermarks start at the stream bases, NOT the current
    // boundaries: the peer's handshake ACK may arrive merged together
    // with its first data segment, and that data must still be
    // reported to the host later in this very pass.
    tcb.lastAckNotified = tcb.iss + 1;
    tcb.lastRcvNotified = tcb.irs + 1;
    actions.notifications.push_back(
        {tcb.flowId, HostNotification::Kind::connected, tcb.iss + 1});
    cancelRtx(tcb, actions);
}

void
FpuProgram::maybeSendFin(Tcb &tcb, FpuActions &actions) const
{
    bool can_fin = tcb.state == ConnState::established ||
                   tcb.state == ConnState::closeWait;
    if (!can_fin || !tcb.closeRequested || tcb.finSent)
        return;
    if (seqGt(tcb.req, tcb.sndNxt))
        return; // data still queued ahead of the FIN

    ControlRequest fin;
    fin.flow = tcb.flowId;
    fin.flags = TcpFlags::fin | TcpFlags::ack;
    fin.seq = tcb.sndNxt;
    fin.ack = tcb.rcvNxt;
    fin.window = tcb.receiveWindow();
    actions.controls.push_back(fin);

    tcb.finSeq = tcb.sndNxt;
    tcb.sndNxt += 1; // the FIN consumes one sequence number
    tcb.finSent = true;
    tcb.lastAckSent = tcb.rcvNxt;
    tcb.state = tcb.state == ConnState::established ? ConnState::finWait1
                                                    : ConnState::lastAck;
}

void
FpuProgram::sendData(Tcb &tcb, std::uint64_t now_us,
                     FpuActions &actions) const
{
    bool can_send = tcb.state == ConnState::established ||
                    tcb.state == ConnState::closeWait;
    if (!can_send)
        return;

    std::int32_t avail = seqDiff(tcb.req, tcb.sndNxt);
    if (avail <= 0)
        return;

    std::uint32_t window = tcb.effectiveWindow();
    std::uint32_t in_flight = tcb.bytesInFlight();
    if (window <= in_flight) {
        if (tcb.sndWnd == 0 && tcb.probeDeadlineUs == 0) {
            // Zero-window: make sure the probe timer is running.
            tcb.probeDeadlineUs = now_us + probeIntervalUs;
            actions.timers.push_back(
                {tcb.flowId, TimeoutKind::probe, tcb.probeDeadlineUs});
        }
        return;
    }

    std::uint32_t usable = window - in_flight;
    std::uint32_t len = static_cast<std::uint32_t>(avail);
    if (len > usable)
        len = usable;

    SegmentRequest seg;
    seg.flow = tcb.flowId;
    seg.seq = tcb.sndNxt;
    seg.length = len;
    seg.ack = tcb.rcvNxt;
    seg.window = tcb.receiveWindow();
    actions.segments.push_back(seg);
    tcb.lastAckSent = tcb.rcvNxt;
    tcb.lastWndAdvertised = tcb.rcvNxt + seg.window;
    tcb.sndNxt += len;

    if (!tcb.rttSampling) {
        tcb.rttSampling = true;
        tcb.rttSampleSeq = tcb.sndNxt;
        tcb.rttSampleStartUs = now_us;
    }
}

void
FpuProgram::sendAckIfNeeded(Tcb &tcb, bool sent_data, bool force_ack,
                            FpuActions &actions) const
{
    bool connected = tcb.state == ConnState::established ||
                     tcb.state == ConnState::finWait1 ||
                     tcb.state == ConnState::finWait2 ||
                     tcb.state == ConnState::closing ||
                     tcb.state == ConnState::timeWait ||
                     tcb.state == ConnState::closeWait ||
                     tcb.state == ConnState::lastAck;
    if (!connected)
        return;
    if (sent_data) {
        // Data segments carried the current ACK and window already.
        return;
    }

    bool ack_due = force_ack || seqGt(tcb.rcvNxt, tcb.lastAckSent);

    // Window update: when the peer last heard a nearly closed window
    // (< 1 MSS usable) and recv() has since opened at least one MSS,
    // re-advertise so the sender unblocks (silly-window avoidance).
    SeqNum new_edge = tcb.rcvNxt + tcb.receiveWindow();
    std::int32_t edge_growth = seqDiff(new_edge, tcb.lastWndAdvertised);
    std::int32_t peer_view = seqDiff(tcb.lastWndAdvertised, tcb.rcvNxt);
    bool window_update =
        edge_growth >= static_cast<std::int32_t>(tcb.mss) &&
        peer_view < static_cast<std::int32_t>(tcb.mss);

    if (!ack_due && !window_update)
        return;

    ControlRequest ack;
    ack.flow = tcb.flowId;
    ack.flags = TcpFlags::ack;
    ack.seq = tcb.sndNxt;
    ack.ack = tcb.rcvNxt;
    ack.window = tcb.receiveWindow();
    actions.controls.push_back(ack);
    tcb.lastAckSent = tcb.rcvNxt;
    tcb.lastWndAdvertised = tcb.rcvNxt + ack.window;
}

void
FpuProgram::notifyHost(Tcb &tcb, FpuActions &actions) const
{
    if (tcb.state == ConnState::closed || tcb.state == ConnState::synSent ||
        tcb.state == ConnState::synRcvd || tcb.state == ConnState::listen)
        return;

    if (seqGt(tcb.sndUna, tcb.lastAckNotified)) {
        SeqNum boundary = tcb.sndUna;
        // Do not report the FIN's sequence slot as user data.
        if (tcb.finSent && seqGt(boundary, tcb.finSeq))
            boundary = tcb.finSeq;
        if (seqGt(boundary, tcb.lastAckNotified)) {
            actions.notifications.push_back(
                {tcb.flowId, HostNotification::Kind::acked, boundary});
            tcb.lastAckNotified = boundary;
        }
    }

    SeqNum data_boundary = tcb.rcvNxt - (tcb.peerFinSeen ? 1 : 0);
    if (seqGt(data_boundary, tcb.lastRcvNotified)) {
        actions.notifications.push_back(
            {tcb.flowId, HostNotification::Kind::received, data_boundary});
        tcb.lastRcvNotified = data_boundary;
    }
}

void
FpuProgram::armRtx(Tcb &tcb, std::uint64_t now_us, FpuActions &actions) const
{
    std::uint64_t rto = tcb.rtoUs;
    for (std::uint32_t i = 0; i < tcb.rtxBackoff && rto < maxRtoUs; ++i)
        rto *= 2;
    if (rto > maxRtoUs)
        rto = maxRtoUs;
    tcb.rtxDeadlineUs = now_us + rto;
    actions.timers.push_back(
        {tcb.flowId, TimeoutKind::retransmit, tcb.rtxDeadlineUs});
}

void
FpuProgram::cancelRtx(Tcb &tcb, FpuActions &actions) const
{
    tcb.rtxDeadlineUs = 0;
    actions.timers.push_back({tcb.flowId, TimeoutKind::retransmit, 0});
}

void
FpuProgram::manageTimers(Tcb &tcb, std::uint64_t now_us,
                         FpuActions &actions) const
{
    bool outstanding = tcb.bytesInFlight() > 0 ||
                       tcb.state == ConnState::synSent ||
                       tcb.state == ConnState::synRcvd;
    if (outstanding) {
        if (tcb.rtxDeadlineUs == 0)
            armRtx(tcb, now_us, actions);
    } else if (tcb.rtxDeadlineUs != 0) {
        cancelRtx(tcb, actions);
    }
}

} // namespace f4t::tcp
