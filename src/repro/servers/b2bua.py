"""Back-to-back user agent (B2BUA).

A B2BUA terminates every dialog that reaches it and re-originates a new
one toward the real destination: the caller's leg (A) ends here as if we
were the UAS, and a second, independent leg (B) is started as if we were
a UAC.  Unlike a proxy -- even a dialog-stateful one -- a B2BUA holds
*full call state on both legs for the whole call duration*, which makes
it the heaviest state species in the SERvartuka taxonomy and the reason
the b2bua_chain workload family stresses the state-distribution
algorithms differently from plain INVITE flows.

Leg A *is* the UAS: :class:`B2buaServer` subclasses
:class:`~repro.servers.uas.AnsweringServer`, whose to-tag and wait
tables, request rules and crash clean-up it runs unchanged.  It
overrides only what a bridge does differently: a new INVITE starts leg
B instead of being answered; the 180 and 200 go out once leg B answers
and carry leg B's body; a BYE also tears down leg B and stops the 200's
wait; a CANCEL fails leg A with a 487; Timer H on the initial 200 leaves
the call up; a crash also aborts leg B's transactions.  Leg B runs like
:class:`~repro.servers.uac.CallGenerator` (one
:class:`~repro.sip.dialog.Dialog` per call, RFC 3261 client transactions
in the same :class:`~repro.sip.transaction.ClientCore`).  Media is
irrelevant here; the SDP offer is passed through leg B and the answer
returned on leg A.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.dialog import Dialog
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import ClientCore
from repro.sip.uri import parse_uri


class _B2buaCall:
    """One bridged call: leg B, and what leg A's replies need."""

    __slots__ = ("leg_a_call_id", "leg_b", "invite", "upstream", "state")

    def __init__(self, leg_a_call_id: str, leg_b: Dialog,
                 invite: SipRequest, upstream: str):
        self.leg_a_call_id = leg_a_call_id
        self.leg_b = leg_b            # leg-B dialog (UAC role)
        self.invite = invite          # retained leg-A INVITE (for responses)
        self.upstream = upstream
        self.state = "setup"          # setup -> answered -> completed/failed


class B2buaServer(AnsweringServer):
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

    _TAG_PREFIX = "b2b"
    #: Timer H on leg A's initial 200 abandons the 200, not the call.
    _TIMER_H_ENDS_CALL = False

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        first_hop: str,
        dest_domain: str,
        timers: TimerPolicy = DEFAULT_TIMERS,
        rng: Optional[RngStream] = None,
    ):
        super().__init__(name, loop, network, timers=timers, rng=rng)
        self.first_hop = first_hop
        self.dest_domain = dest_domain
        self._calls_a: Dict[str, _B2buaCall] = {}  # leg A call-id -> call
        self._calls_b: Dict[str, _B2buaCall] = {}  # leg B call-id -> call
        self.client = ClientCore(self, first_hop, self._leg_b_dialog)

    def _handle_response(self, response: SipResponse) -> None:
        self.client.dispatch(response)

    # ------------------------------------------------------------------
    # Leg A: where the bridge answers differently from the UAS
    # ------------------------------------------------------------------
    def _new_call(self, request: SipRequest, src: str, call_id: str,
                  to_tag: str) -> None:
        count = self._tag_counter
        # Parsed once per call; every leg-B request reuses them.
        destination = parse_uri(f"sip:{request.uri.user}@{self.dest_domain}")
        leg_b = Dialog(self.name, f"{self.name}-b2b-{count}",
                       parse_uri(f"sip:leg{count}@{self.name}"),
                       f"b2b-{count}", destination)
        call = _B2buaCall(call_id, leg_b, request, src)
        self._calls_a[call_id] = call
        self._calls_b[leg_b.call_id] = call
        self._originate_leg_b(call, request)

    def _answer_sdp(self, request: SipRequest, ok: SipResponse) -> None:
        """A leg-A refresh is answered here, with no body: the session
        description is leg B's, and the refresh does not reach it."""

    def _answer_leg_a(self, call: _B2buaCall, body: str) -> None:
        call_id = call.leg_a_call_id
        to_tag = self._seen_invites[call_id]
        ringing = SipResponse.for_request(call.invite, 180, to_tag=to_tag)
        ok = SipResponse.for_request(call.invite, 200, to_tag=to_tag)
        if body:
            ok.body = body
            ok.add("Content-Type", "application/sdp")
        call.state = "answered"
        self._send_ok(call_id, ok, self.send_response(ringing, call.upstream))

    def _call_ended(self, call_id: str) -> None:
        """Caller hung up: stop the 200's wait and tear down leg B."""
        call = self._calls_a.pop(call_id)
        wait = self._pending_acks.pop(call_id, None)
        if wait is not None:
            wait.cancel()
        if call.leg_b.remote_tag is not None:
            self._send_leg_b_bye(call)
        else:
            # Leg B never answered; nothing to tear down there.
            self._calls_b.pop(call.leg_b.call_id, None)

    def _terminate(self, call_id: str) -> bool:
        call = self._calls_a.get(call_id)
        if call is None or call.state != "setup":
            return False
        call.state = "failed"
        self._fail_leg_a(call, 487)
        return True

    def _fail_leg_a(self, call: _B2buaCall, status: int) -> None:
        """Answer leg A's INVITE ``status`` and forget the call (still
        in setup, so no 200 of it awaits an ACK)."""
        call_id = call.leg_a_call_id
        to_tag = self._seen_invites.pop(call_id, None)
        self.send_response(
            SipResponse.for_request(call.invite, status, to_tag=to_tag),
            call.upstream,
        )
        self._calls_a.pop(call_id, None)
        self._calls_b.pop(call.leg_b.call_id, None)

    # ------------------------------------------------------------------
    # Leg B: UAC role
    # ------------------------------------------------------------------
    def _leg_b_dialog(self, call_id: str) -> Optional[Dialog]:
        call = self._calls_b.get(call_id)
        return None if call is None else call.leg_b

    def _originate_leg_b(self, call: _B2buaCall, original: SipRequest) -> None:
        branch = self.client.next_branch()
        invite = call.leg_b.request("INVITE", branch, body=original.body)
        self.metrics.counter("b2b_invites_sent").increment()
        leg_b_id = call.leg_b.call_id
        self.client.start(
            invite, branch,
            on_response=lambda response: self._on_leg_b_response(
                leg_b_id, branch, response
            ),
            on_timeout=lambda: self._on_leg_b_timeout(leg_b_id, branch),
        )

    def _on_leg_b_response(self, leg_b_id: str, branch: str,
                           response: SipResponse) -> None:
        call = self._calls_b.get(leg_b_id)
        if call is None or response.is_provisional:
            return
        self.client.reap(branch, "INVITE")
        if response.is_success:
            call.leg_b.confirm(response)
            self.client.ack(call.leg_b, response)
            if call.state == "setup":
                self._answer_leg_a(call, response.body)
            return
        # Downstream failure: relay the status onto leg A verbatim.
        if call.state == "setup":
            call.state = "failed"
            self.metrics.counter("calls_failed").increment()
            self._fail_leg_a(call, response.status)

    def _on_leg_b_timeout(self, leg_b_id: str, branch: str) -> None:
        self.client.reap(branch, "INVITE")
        call = self._calls_b.get(leg_b_id)
        if call is None or call.state != "setup":
            return
        call.state = "failed"
        self.metrics.counter("calls_failed").increment()
        self._fail_leg_a(call, 408)

    def _send_leg_b_bye(self, call: _B2buaCall) -> None:
        call.leg_b.cseq += 1
        branch = self.client.next_branch()
        bye = call.leg_b.request("BYE", branch)
        self.metrics.counter("byes_sent").increment()
        leg_b_id = call.leg_b.call_id
        self.client.start(
            bye, branch,
            on_response=lambda response: self._on_leg_b_bye_response(
                leg_b_id, branch, response
            ),
            on_timeout=lambda: self._on_leg_b_bye_done(leg_b_id, branch,
                                                       "bye_timeouts"),
        )

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
        self.client.reap(branch, "BYE")
        self.metrics.counter(counter).increment()
        self._calls_b.pop(leg_b_id, None)

    # ------------------------------------------------------------------
    # Crash/restart lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Both legs of every bridged call die with the process."""
        super().on_crash()
        self.client.abort_all()
        self._calls_a.clear()
        self._calls_b.clear()

    # ------------------------------------------------------------------
    # Harness-facing statistics
    # ------------------------------------------------------------------
    @property
    def calls_bridged(self) -> int:
        return self.metrics.counter("calls_answered").value

    @property
    def live_calls(self) -> int:
        return len(self._calls_a)
