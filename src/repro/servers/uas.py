"""SIPp-like answering server (UAS), and the answering side it shares.

Mirrors the default SIPp UAS scenario the paper loads against: answer
every INVITE with 180 Ringing then 200 OK, absorb the ACK, answer BYE
with 200 OK.  Per RFC 3261 13.3.1.4 the 200 to the INVITE is
retransmitted on the T1-doubling schedule until the ACK arrives
(:class:`~repro.sip.transaction.AckWait`).

The B2BUA's leg A (:class:`~repro.servers.b2bua.B2buaServer`) is this
class: it inherits the request dispatch, the to-tag and wait tables,
the replay, re-INVITE, ACK, BYE and CANCEL rules and the crash
clean-up, and overrides only what a bridge does differently.

Throughput in the paper is "measured at the SIPp server", so this node
keeps the authoritative completed-calls counters the harness reads.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.servers.node import Node
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.sdp import SdpError, SessionDescription
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import AckWait


class AnsweringServer(Node):
    """Answers calls; one instance can serve many AORs."""

    #: Leading part of every to-tag this node assigns.
    _TAG_PREFIX = "uas"
    #: Timer H on an initial INVITE's 200 ends the call.
    _TIMER_H_ENDS_CALL = True

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        timers: TimerPolicy = DEFAULT_TIMERS,
        ring_delay: float = 0.0,
        **kwargs,
    ):
        super().__init__(name, loop, network, **kwargs)
        self.timers = timers
        self.ring_delay = ring_delay
        self._pending_acks: Dict[str, AckWait] = {}
        self._seen_invites: Dict[str, str] = {}  # call-id -> to-tag
        self._ringing: Dict[str, tuple] = {}  # call-id -> (handle, request, hop)
        # Offer body -> rendered answer body.  SDP answering is a pure
        # function (first codec wins, fixed ports), and each generator
        # reuses one offer body, so the memo stays tiny; it stops
        # growing at 256 entries and never holds a failure.
        self._answer_memo: Dict[str, str] = {}
        self._tag_counter = 0
        # Optional count-only hook for 200-OK retransmission timers
        # (see repro.obs).
        self.timer_observer = None

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: SipMessage, src: str) -> None:
        if isinstance(message, SipRequest):
            self._handle_request(message, src)
        else:
            self._handle_response(message)

    def _handle_response(self, response: SipResponse) -> None:
        # Endpoints in this scenario never originate requests, so any
        # response reaching the UAS is stray; count and drop it.
        self.metrics.counter("stray_responses").increment()

    def _handle_request(self, request: SipRequest, src: str) -> None:
        if request.method == "INVITE":
            self._handle_invite(request, src)
        elif request.method == "ACK":
            self._handle_ack(request)
        elif request.method == "BYE":
            self._handle_bye(request, src)
        elif request.method == "CANCEL":
            self._handle_cancel(request, src)
        else:
            self.send_response(SipResponse.for_request(request, 200), src)
            self.metrics.counter("other_requests").increment()

    def _handle_invite(self, request: SipRequest, src: str) -> None:
        call_id = request.call_id
        if request.to.tag is not None:
            # In-dialog (re-)INVITE: carries the to-tag we assigned.
            self._handle_reinvite(request, src)
            return
        if call_id in self._seen_invites:
            # Retransmitted INVITE: replay the stored 200 if still unACKed.
            self.metrics.counter("invite_retransmits_seen").increment()
            pending = self._pending_acks.get(call_id)
            if pending is not None:
                pending.replay()
            return

        self.metrics.counter("calls_received").increment()
        self._tag_counter += 1
        to_tag = f"{self._TAG_PREFIX}-{self.name}-{self._tag_counter}"
        self._seen_invites[call_id] = to_tag
        self._new_call(request, src, call_id, to_tag)

    def _new_call(self, request: SipRequest, src: str, call_id: str,
                  to_tag: str) -> None:
        """Answer a new INVITE: 180 now, 200 after ``ring_delay``."""
        ringing = SipResponse.for_request(request, 180, to_tag=to_tag)
        ok = SipResponse.for_request(request, 200, to_tag=to_tag)
        # Answer the caller's SDP offer (first codec wins); calls with
        # no/broken SDP still complete -- the control plane is the
        # subject here, not the media.
        self._answer_sdp(request, ok)
        next_hop = self.send_response(ringing, src)
        if self.ring_delay > 0:
            handle = self.loop.schedule(
                self.ring_delay, self._send_ok, call_id, ok, next_hop
            )
            self._ringing[call_id] = (handle, request, next_hop)
        else:
            self._send_ok(call_id, ok, next_hop)

    def _answer_sdp(self, request: SipRequest, ok: SipResponse) -> None:
        if not request.body:
            return
        answer = self._answer_memo.get(request.body)
        # add() rather than set(): for_request() never copies
        # Content-Type, so appending is equivalent.
        if answer is not None:
            ok.body = answer
            ok.add("Content-Type", "application/sdp")
        else:
            try:
                offer = SessionDescription.parse(request.body)
                ok.body = offer.answer(self.name).to_body()
                ok.add("Content-Type", "application/sdp")
                if len(self._answer_memo) < 256:
                    self._answer_memo[request.body] = ok.body
            except SdpError:
                self.metrics.counter("bad_sdp_offers").increment()

    def _handle_reinvite(self, request: SipRequest, src: str) -> None:
        """RFC 3261 14.2: answer a session-refresh INVITE inside the
        dialog with a 200 carrying the established to-tag."""
        call_id = request.call_id
        known = self._seen_invites.get(call_id)
        if known is None or request.to.tag != known:
            self.metrics.counter("reinvites_unknown").increment()
            self.send_response(SipResponse.for_request(request, 481), src)
            return
        pending = self._pending_acks.get(call_id)
        if pending is not None:
            # A 200 (original or re-INVITE) is still awaiting its ACK:
            # treat this as a retransmission and replay it.
            self.metrics.counter("invite_retransmits_seen").increment()
            pending.replay()
            return
        self.metrics.counter("reinvites_received").increment()
        ok = SipResponse.for_request(request, 200, to_tag=known)
        self._answer_sdp(request, ok)
        # Timer H on a re-INVITE's 200 must not kill the session.
        self._await_ack(call_id, ok, self.send_response(ok, src),
                        initial=False)

    def _handle_cancel(self, request: SipRequest, src: str) -> None:
        """RFC 3261 9.2: 200 the CANCEL; if the INVITE is still pending,
        answer it 487 Request Terminated."""
        self.send_response(SipResponse.for_request(request, 200), src)
        if self._terminate(request.call_id):
            self.metrics.counter("calls_cancelled").increment()
        else:
            # Unknown or already answered: nothing to terminate.
            self.metrics.counter("cancels_too_late").increment()

    def _terminate(self, call_id: str) -> bool:
        """Answer a still-ringing INVITE 487; False if none rings."""
        ringing = self._ringing.pop(call_id, None)
        if ringing is None:
            return False
        handle, original, next_hop = ringing
        handle.cancel()
        to_tag = self._seen_invites.pop(call_id, None)
        self.send(next_hop,
                  SipResponse.for_request(original, 487, to_tag=to_tag))
        return True

    def _send_ok(self, call_id: str, ok: SipResponse, next_hop: str) -> None:
        self._ringing.pop(call_id, None)
        if call_id not in self._seen_invites:
            return  # call already torn down while "ringing"
        self.send(next_hop, ok)
        self._await_ack(call_id, ok, next_hop, initial=True)
        self.metrics.counter("calls_answered").increment()

    def _await_ack(self, call_id: str, ok: SipResponse, next_hop: str,
                   initial: bool) -> None:
        self._pending_acks[call_id] = AckWait(
            self, call_id, ok, next_hop, initial, self.timer_observer)

    def pending_ack(self, call_id: str) -> Optional[AckWait]:
        return self._pending_acks.get(call_id)

    def ack_timed_out(self, wait: AckWait) -> None:
        """Timer H: the 200 is abandoned, and with it an initial
        INVITE's call where ``_TIMER_H_ENDS_CALL``."""
        del self._pending_acks[wait.call_id]
        if wait.initial:
            if self._TIMER_H_ENDS_CALL:
                self._seen_invites.pop(wait.call_id, None)
            self.metrics.counter("calls_never_acked").increment()
        else:
            self.metrics.counter("reinvites_never_acked").increment()

    def _handle_ack(self, request: SipRequest) -> None:
        pending = self._pending_acks.pop(request.call_id, None)
        if pending is not None:
            pending.cancel()
            self.metrics.counter("acks_received").increment()
        else:
            self.metrics.counter("ack_duplicates").increment()

    def _handle_bye(self, request: SipRequest, src: str) -> None:
        call_id = request.call_id
        ended = self._seen_invites.pop(call_id, None) is not None
        if ended:
            self.metrics.counter("calls_completed").increment()
        else:
            # BYE retransmit (or BYE for an unknown call): still answer,
            # a real UAS would send 481 for unknown dialogs.
            self.metrics.counter("bye_duplicates").increment()
        self.send_response(SipResponse.for_request(request, 200), src)
        if ended:
            self._call_ended(call_id)

    def _call_ended(self, call_id: str) -> None:
        """A BYE ended the call (its 200 is sent).  A 200 still awaiting
        its ACK keeps re-sending until the ACK or Timer H."""

    # ------------------------------------------------------------------
    # Crash/restart lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Answered-but-unfinished calls die with the server."""
        lost = len(self._seen_invites)
        if lost:
            self.metrics.counter("calls_lost_on_crash").increment(lost)
        for pending in self._pending_acks.values():
            pending.cancel()
        self._pending_acks.clear()
        for handle, _request, _hop in self._ringing.values():
            handle.cancel()
        self._ringing.clear()
        self._seen_invites.clear()

    # ------------------------------------------------------------------
    # Harness-facing statistics
    # ------------------------------------------------------------------
    @property
    def calls_received(self) -> int:
        return self.metrics.counter("calls_received").value

    @property
    def calls_completed(self) -> int:
        return self.metrics.counter("calls_completed").value
