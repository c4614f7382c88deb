"""Back-to-back user agent (B2BUA).

A B2BUA terminates every dialog that reaches it and re-originates a new
one toward the real destination: the caller's leg (A) ends here as if we
were the UAS, and a second, independent leg (B) is started as if we were
a UAC.  Unlike a proxy -- even a dialog-stateful one -- a B2BUA holds
*full call state on both legs for the whole call duration*, which makes
it the heaviest state species in the SERvartuka taxonomy and the reason
the b2bua_chain workload family stresses the state-distribution
algorithms differently from plain INVITE flows.

The implementation composes the repo's two endpoint idioms: leg A is
handled exactly like :class:`~repro.servers.uas.AnsweringServer`
(assign a to-tag, retransmit the 200 on the T1 schedule until ACKed,
with the same :class:`~repro.sip.transaction.AckWait`),
leg B like :class:`~repro.servers.uac.CallGenerator` (RFC 3261 client
transactions with Timer A/B).  Media is irrelevant here; the SDP offer
is passed through leg B and the answer returned on leg A.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.servers.node import Node
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sip.headers import Via
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import AckWait, ClientTransaction
from repro.sip.uri import SipUri, parse_uri


class _B2buaCall:
    """State for one bridged call: both legs, all timers."""

    __slots__ = (
        "leg_a_call_id", "leg_b_call_id", "invite", "upstream",
        "to_tag", "state", "ack_wait", "b_to_tag", "b_route_set", "b_cseq",
        "b_destination", "b_from_uri", "b_from_tag",
    )

    def __init__(self, leg_a_call_id: str, leg_b_call_id: str,
                 invite: SipRequest, upstream: str):
        self.leg_a_call_id = leg_a_call_id
        self.leg_b_call_id = leg_b_call_id
        self.invite = invite          # retained leg-A INVITE (for responses)
        self.upstream = upstream
        self.to_tag: Optional[str] = None
        self.state = "setup"          # setup -> answered -> completed/failed
        # Leg-A 200 awaiting its ACK (UAS role).
        self.ack_wait: Optional[AckWait] = None
        # Leg-B dialog state (UAC role).
        self.b_to_tag: Optional[str] = None
        self.b_route_set: list = []
        self.b_cseq = 1
        # Parsed once per call; every leg-B request reuses them.
        self.b_destination: Optional[SipUri] = None
        self.b_from_uri: Optional[SipUri] = None
        self.b_from_tag = ""

    def stop_ack_wait(self) -> bool:
        """Cancel the leg-A 200's retransmission; False if none ran."""
        wait = self.ack_wait
        if wait is None:
            return False
        wait.cancel()
        self.ack_wait = None
        return True


class B2buaServer(Node):
    """Terminates dialogs from upstream and re-originates them downstream.

    Parameters
    ----------
    first_hop:
        Node name the re-originated (leg B) requests are sent to.
    dest_domain:
        Leg-B request URIs keep the caller's target user but move it to
        this domain: ``sip:alice@b2b.example.net`` arriving on leg A is
        re-originated as ``sip:alice@<dest_domain>``.
    """

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        first_hop: str,
        dest_domain: str,
        timers: TimerPolicy = DEFAULT_TIMERS,
        **kwargs,
    ):
        kwargs.setdefault("model_cpu", False)
        super().__init__(name, loop, network, **kwargs)
        self.first_hop = first_hop
        self.dest_domain = dest_domain
        self.timers = timers
        self._calls_a: Dict[str, _B2buaCall] = {}  # leg A call-id -> call
        self._calls_b: Dict[str, _B2buaCall] = {}  # leg B call-id -> call
        self._transactions: Dict[tuple, ClientTransaction] = {}
        self._call_counter = 0
        self._branch_counter = 0

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def handle_message(self, payload, src: str) -> None:
        if not isinstance(payload, SipMessage):
            return
        if isinstance(payload, SipRequest):
            self._handle_request(payload, src)
        else:
            self._handle_response(payload)

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

    def _handle_response(self, response: SipResponse) -> None:
        via = response.top_via
        branch = via.branch if via is not None else None
        try:
            method = response.cseq.method
        except Exception:
            method = "INVITE"
        if method == "ACK":
            method = "INVITE"
        transaction = (
            self._transactions.get((branch, method)) if branch else None
        )
        if transaction is not None and transaction.state.value != "terminated":
            transaction.receive_response(response)
            return
        # Retransmitted 200 on leg B after our transaction ended: the
        # ACK was lost downstream; re-ACK the dialog.
        call = self._calls_b.get(response.call_id)
        if call is not None and response.is_success and method == "INVITE":
            self.metrics.counter("acks_resent").increment()
            self._send_leg_b_ack(call)
            return
        self.metrics.counter("late_responses").increment()

    # ------------------------------------------------------------------
    # Leg A: UAS role
    # ------------------------------------------------------------------
    def _handle_invite(self, request: SipRequest, src: str) -> None:
        call_id = request.call_id
        call = self._calls_a.get(call_id)
        if request.to.tag is not None:
            self._handle_reinvite(request, src, call)
            return
        if call is not None:
            # Retransmitted INVITE: replay the 200 if one is pending.
            self.metrics.counter("invite_retransmits_seen").increment()
            if call.ack_wait is not None:
                call.ack_wait.replay()
            return

        self.metrics.counter("calls_received").increment()
        self._call_counter += 1
        call = _B2buaCall(
            call_id, f"{self.name}-b2b-{self._call_counter}", request, src
        )
        call.to_tag = f"b2b-{self.name}-{self._call_counter}"
        call.b_destination = parse_uri(
            f"sip:{request.uri.user}@{self.dest_domain}")
        call.b_from_uri = parse_uri(f"sip:leg{self._call_counter}@{self.name}")
        call.b_from_tag = f"b2b-{self._call_counter}"
        self._calls_a[call_id] = call
        self._calls_b[call.leg_b_call_id] = call
        self._originate_leg_b(call, request)

    def _handle_reinvite(self, request: SipRequest, src: str,
                         call: Optional[_B2buaCall]) -> None:
        """Session refresh on leg A: answered locally -- the B2BUA owns
        the dialog, so the refresh does not propagate to leg B."""
        if call is None or request.to.tag != call.to_tag:
            self.metrics.counter("reinvites_unknown").increment()
            self.send_response(SipResponse.for_request(request, 481), src)
            return
        if call.ack_wait is not None:
            # Still waiting on an ACK: treat as retransmission.
            self.metrics.counter("invite_retransmits_seen").increment()
            call.ack_wait.replay()
            return
        self.metrics.counter("reinvites_answered").increment()
        ok = SipResponse.for_request(request, 200, to_tag=call.to_tag)
        self._send_leg_a_ok(call, ok)

    def _answer_leg_a(self, call: _B2buaCall, body: str) -> None:
        ringing = SipResponse.for_request(call.invite, 180, to_tag=call.to_tag)
        ok = SipResponse.for_request(call.invite, 200, to_tag=call.to_tag)
        if body:
            ok.body = body
            ok.add("Content-Type", "application/sdp")
        call.state = "answered"
        self.metrics.counter("calls_answered").increment()
        self.send_response(ringing, call.upstream)
        self._send_leg_a_ok(call, ok)

    def _send_leg_a_ok(self, call: _B2buaCall, ok: SipResponse) -> None:
        """Send a 200 on leg A and retransmit it until the ACK arrives."""
        next_hop = self.send_response(ok, call.upstream)
        call.ack_wait = AckWait(self, call.leg_a_call_id, ok, next_hop)

    def pending_ack(self, call_id: str) -> Optional[AckWait]:
        call = self._calls_a.get(call_id)
        return None if call is None else call.ack_wait

    def ack_timed_out(self, wait: AckWait) -> None:
        """Timer H: the call stays up, only the 200 is abandoned."""
        self._calls_a[wait.call_id].ack_wait = None
        self.metrics.counter("calls_never_acked").increment()

    def _handle_ack(self, request: SipRequest) -> None:
        call = self._calls_a.get(request.call_id)
        if call is not None and call.stop_ack_wait():
            self.metrics.counter("acks_received").increment()
        else:
            self.metrics.counter("ack_duplicates").increment()

    def _handle_bye(self, request: SipRequest, src: str) -> None:
        """Caller hangs up: 200 the leg-A BYE and tear down leg B."""
        call = self._calls_a.pop(request.call_id, None)
        self.send_response(SipResponse.for_request(request, 200), src)
        if call is None:
            self.metrics.counter("bye_duplicates").increment()
            return
        call.stop_ack_wait()
        self.metrics.counter("calls_completed").increment()
        if call.b_to_tag is not None:
            self._send_leg_b_bye(call)
        else:
            # Leg B never answered; nothing to tear down there.
            self._calls_b.pop(call.leg_b_call_id, None)

    def _handle_cancel(self, request: SipRequest, src: str) -> None:
        self.send_response(SipResponse.for_request(request, 200), src)
        call = self._calls_a.get(request.call_id)
        if call is None or call.state != "setup":
            self.metrics.counter("cancels_too_late").increment()
            return
        self.metrics.counter("calls_cancelled").increment()
        call.state = "failed"
        self._fail_leg_a(call, 487)

    # ------------------------------------------------------------------
    # Leg B: UAC role
    # ------------------------------------------------------------------
    def _next_branch(self) -> str:
        self._branch_counter += 1
        return f"{Via.MAGIC_COOKIE}-{self.name}-{self._branch_counter}"

    def _originate_leg_b(self, call: _B2buaCall, original: SipRequest) -> None:
        invite = SipRequest.build(
            "INVITE",
            uri=call.b_destination,
            from_addr=call.b_from_uri,
            to_addr=call.b_destination,
            call_id=call.leg_b_call_id,
            cseq=1,
            from_tag=call.b_from_tag,
            body=original.body,
        )
        invite.add("Contact", f"<sip:{self.name}>")
        if original.body:
            invite.add("Content-Type", "application/sdp")
        branch = self._next_branch()
        invite.push_via(Via(self.name, branch=branch))
        self.metrics.counter("b2b_invites_sent").increment()
        leg_b_id = call.leg_b_call_id
        transaction = ClientTransaction(
            invite,
            self.loop,
            send_fn=lambda message: self.send(self.first_hop, message),
            on_response=lambda response: self._on_leg_b_response(
                leg_b_id, branch, response
            ),
            on_timeout=lambda: self._on_leg_b_timeout(leg_b_id, branch),
            timers=self.timers,
        )
        self._transactions[(branch, "INVITE")] = transaction
        transaction.start()

    def _on_leg_b_response(self, leg_b_id: str, branch: str,
                           response: SipResponse) -> None:
        call = self._calls_b.get(leg_b_id)
        if call is None or response.is_provisional:
            return
        self._transactions.pop((branch, "INVITE"), None)
        if response.is_success:
            call.b_to_tag = response.to.tag
            call.b_route_set = list(response.get_all("Record-Route"))
            self._send_leg_b_ack(call)
            if call.state == "setup":
                self._answer_leg_a(call, response.body)
            return
        # Downstream failure: relay the status onto leg A verbatim.
        if call.state == "setup":
            call.state = "failed"
            self.metrics.counter("calls_failed").increment()
            self._fail_leg_a(call, response.status)

    def _on_leg_b_timeout(self, leg_b_id: str, branch: str) -> None:
        self._transactions.pop((branch, "INVITE"), None)
        call = self._calls_b.get(leg_b_id)
        if call is None or call.state != "setup":
            return
        call.state = "failed"
        self.metrics.counter("calls_failed").increment()
        self._fail_leg_a(call, 408)

    def _send_leg_b_ack(self, call: _B2buaCall) -> None:
        ack = SipRequest.build(
            "ACK",
            uri=call.b_destination,
            from_addr=call.b_from_uri,
            to_addr=call.b_destination,
            call_id=call.leg_b_call_id,
            cseq=call.b_cseq,
            from_tag=call.b_from_tag,
            to_tag=call.b_to_tag,
        )
        for route in call.b_route_set:
            ack.add("Route", route)
        ack.push_via(Via(self.name, branch=self._next_branch()))
        self.metrics.counter("acks_sent").increment()
        self.send(self.first_hop, ack)

    def _send_leg_b_bye(self, call: _B2buaCall) -> None:
        call.b_cseq += 1
        bye = SipRequest.build(
            "BYE",
            uri=call.b_destination,
            from_addr=call.b_from_uri,
            to_addr=call.b_destination,
            call_id=call.leg_b_call_id,
            cseq=call.b_cseq,
            from_tag=call.b_from_tag,
            to_tag=call.b_to_tag,
        )
        for route in call.b_route_set:
            bye.add("Route", route)
        branch = self._next_branch()
        bye.push_via(Via(self.name, branch=branch))
        self.metrics.counter("byes_sent").increment()
        leg_b_id = call.leg_b_call_id
        transaction = ClientTransaction(
            bye,
            self.loop,
            send_fn=lambda message: self.send(self.first_hop, message),
            on_response=lambda response: self._on_leg_b_bye_response(
                leg_b_id, branch, response
            ),
            on_timeout=lambda: self._on_leg_b_bye_done(leg_b_id, branch,
                                                       "bye_timeouts"),
            timers=self.timers,
        )
        self._transactions[(branch, "BYE")] = transaction
        transaction.start()

    def _on_leg_b_bye_response(self, leg_b_id: str, branch: str,
                               response: SipResponse) -> None:
        if response.is_provisional:
            return
        self._on_leg_b_bye_done(
            leg_b_id, branch,
            "byes_confirmed" if response.is_success else "byes_rejected",
        )

    def _on_leg_b_bye_done(self, leg_b_id: str, branch: str,
                           counter: str) -> None:
        self._transactions.pop((branch, "BYE"), None)
        self.metrics.counter(counter).increment()
        self._calls_b.pop(leg_b_id, None)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _fail_leg_a(self, call: _B2buaCall, status: int) -> None:
        """Answer leg A's INVITE ``status`` and forget the call (still
        in setup, so no 200 of it awaits an ACK)."""
        self.send_response(
            SipResponse.for_request(call.invite, status, to_tag=call.to_tag),
            call.upstream,
        )
        self._calls_a.pop(call.leg_a_call_id, None)
        self._calls_b.pop(call.leg_b_call_id, None)

    # ------------------------------------------------------------------
    # Crash/restart lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Both legs of every bridged call die with the process."""
        lost = len(self._calls_a)
        if lost:
            self.metrics.counter("calls_lost_on_crash").increment(lost)
        for call in self._calls_a.values():
            call.stop_ack_wait()
        for transaction in self._transactions.values():
            transaction.abort()
        self._transactions.clear()
        self._calls_a.clear()
        self._calls_b.clear()

    # ------------------------------------------------------------------
    # Harness-facing statistics
    # ------------------------------------------------------------------
    @property
    def calls_received(self) -> int:
        return self.metrics.counter("calls_received").value

    @property
    def calls_bridged(self) -> int:
        return self.metrics.counter("calls_answered").value

    @property
    def live_calls(self) -> int:
        return len(self._calls_a)
