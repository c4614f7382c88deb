"""SIPp-like call generator (UAC).

Open-loop load generation exactly like the paper's SIPp clients: calls
are originated at a configured rate regardless of how the system is
coping, each call runs the make-and-break scenario

    INVITE -> (100) -> 180 -> 200 -> ACK -> [hold] -> BYE -> 200

with full RFC 3261 client transactions (Timer A/B retransmission for
the INVITE, Timer E/F for the BYE).  The generator keeps the statistics
the paper's evaluation reads:

- attempted / completed / failed call counters (throughput),
- INVITE and BYE response-time histograms (Figure 6),
- per-call ``100 Trying`` accounting -- the paper's statefulness check
  is "the number of calls sent by the SIPp client is equal to the
  number of 100 Trying messages that it receives",
- retransmission counters (the overload symptom).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.servers.node import Node
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sip.dialog import Dialog
from repro.sip.digest import make_authorization
from repro.sip.sdp import SessionDescription
from repro.sip.message import SipMessage, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import ClientCore
from repro.sip.uri import parse_uri

#: Domain of every caller's From URI.
FROM_DOMAIN = "clients.example.com"


def _check_rate(rate: float) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be finite and positive: {rate}")


class CallGeneratorConfig:
    """Workload description for one generator."""

    def __init__(
        self,
        rate: float,
        first_hop: str,
        destinations: Sequence[str],
        arrival: str = "poisson",
        hold_time: float = 0.0,
        hold_dist: str = "fixed",
        hold_sigma: float = 0.6,
        hold_alpha: float = 2.5,
        reinvite_after: Optional[float] = None,
        max_calls: Optional[int] = None,
        auth_username: Optional[str] = None,
        auth_password: Optional[str] = None,
        auth_realm: Optional[str] = None,
        auth_nonce: str = "repro-nonce",
        abandon_after: Optional[float] = None,
        respect_retry_after: bool = False,
    ):
        _check_rate(rate)
        if not destinations:
            raise ValueError("need at least one destination AOR")
        if arrival not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival process {arrival!r}")
        if hold_time < 0:
            raise ValueError("hold_time must be >= 0")
        if hold_dist not in ("fixed", "lognormal", "pareto"):
            raise ValueError(f"unknown hold distribution {hold_dist!r}")
        if hold_sigma < 0:
            raise ValueError("hold_sigma must be >= 0")
        if hold_alpha <= 1.0:
            raise ValueError("hold_alpha must be > 1 (finite mean)")
        if reinvite_after is not None and reinvite_after <= 0:
            raise ValueError("reinvite_after must be positive")
        if abandon_after is not None and abandon_after <= 0:
            raise ValueError("abandon_after must be positive")
        self.rate = rate
        self.first_hop = first_hop
        self.destinations = list(destinations)
        self.arrival = arrival
        self.hold_time = hold_time
        #: Per-call holding-time distribution: ``"fixed"`` holds exactly
        #: ``hold_time``; ``"lognormal"`` and ``"pareto"`` draw with mean
        #: ``hold_time`` (``hold_sigma`` / ``hold_alpha`` shape them).
        self.hold_dist = hold_dist
        self.hold_sigma = hold_sigma
        self.hold_alpha = hold_alpha
        #: Send a session-refresh re-INVITE this many seconds into any
        #: call whose drawn hold exceeds it; None disables re-INVITEs.
        self.reinvite_after = reinvite_after
        self.max_calls = max_calls
        self.auth_username = auth_username
        self.auth_password = auth_password
        self.auth_realm = auth_realm
        self.auth_nonce = auth_nonce
        #: Give up (CANCEL) calls still unanswered after this many
        #: seconds; None disables caller abandonment.
        self.abandon_after = abandon_after
        #: Honour 503 Retry-After by pausing origination for the
        #: advertised hold-off (off by default: the paper's SIPp
        #: clients are strictly open-loop, and overload-control
        #: experiments measure the *servers'* pushback).
        self.respect_retry_after = respect_retry_after

    @property
    def wants_auth(self) -> bool:
        return bool(self.auth_username and self.auth_realm)


class CallRecord:
    """Lifecycle of one call at the UAC."""

    __slots__ = (
        "dialog", "created_at", "answered_at", "completed_at",
        "bye_sent_at", "state", "got_100", "got_180", "invite_branch",
    )

    def __init__(self, dialog: Dialog, invite_branch: str, created_at: float):
        self.dialog = dialog
        self.invite_branch = invite_branch
        self.created_at = created_at
        self.answered_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.bye_sent_at: Optional[float] = None
        self.state = "inviting"
        self.got_100 = False
        self.got_180 = False


class CallGenerator(Node):
    """Originates calls through a first-hop proxy at a configured rate."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        network: Network,
        config: CallGeneratorConfig,
        timers: TimerPolicy = DEFAULT_TIMERS,
        **kwargs,
    ):
        super().__init__(name, loop, network, **kwargs)
        self.config = config
        self.timers = timers
        self._arrival_rng = self.rng.spawn("arrivals")
        # Holding-time draws get their own stream so enabling a
        # distribution never perturbs the arrival process (and vice
        # versa); hold_dist="fixed" draws nothing from it.
        self._hold_rng = self.rng.spawn("hold")
        self._calls: Dict[str, CallRecord] = {}
        self.client = ClientCore(self, config.first_hop, self._answered_dialog)
        self._call_counter = 0
        self._running = False
        self._dest_index = 0
        # Destinations parsed once; every request of a call reuses them.
        self._dest_uris = [parse_uri(d) for d in config.destinations]
        # The SDP offer depends only on the generator's name, so its
        # wire form is rendered once and reused for every call.
        self._offer_body = SessionDescription.offer(name).to_body()
        # 503 Retry-After hold-off (repro.core.control): arrivals keep
        # ticking open-loop, but while backed off no call is started.
        self._backoff_until = 0.0

    # ------------------------------------------------------------------
    # Load control
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next_arrival(first=True)

    def stop(self) -> None:
        """Stop *originating*; in-flight calls still complete."""
        self._running = False

    def set_rate(self, rate: float) -> None:
        _check_rate(rate)
        self.config.rate = rate

    def _schedule_next_arrival(self, first: bool = False) -> None:
        if not self._running:
            return
        if self.config.max_calls is not None and self._call_counter >= self.config.max_calls:
            self._running = False
            return
        mean = 1.0 / self.config.rate
        if self.config.arrival == "poisson":
            delay = self._arrival_rng.exponential(mean)
        else:
            delay = 0.0 if first else mean
        self.loop.schedule(delay, self._originate)

    def _originate(self) -> None:
        if not self._running:
            return
        if self.loop.now < self._backoff_until:
            self.metrics.counter("calls_suppressed_backoff").increment()
        else:
            self._start_call()
        self._schedule_next_arrival()

    # ------------------------------------------------------------------
    # Call setup
    # ------------------------------------------------------------------
    def _start_call(self) -> None:
        self._call_counter += 1
        destination = self.config.destinations[self._dest_index]
        dest_uri = self._dest_uris[self._dest_index]
        self._dest_index = (self._dest_index + 1) % len(self.config.destinations)
        call_id = f"{self.name}-call-{self._call_counter}"
        from_uri = parse_uri(f"sip:user{self._call_counter}@{FROM_DOMAIN}")
        dialog = Dialog(self.name, call_id, from_uri,
                        f"uac-{self._call_counter}", dest_uri)
        branch = self.client.next_branch()
        invite = dialog.request("INVITE", branch, body=self._offer_body)
        if self.config.wants_auth:
            invite.add(
                "Proxy-Authorization",
                make_authorization(
                    self.config.auth_username,
                    self.config.auth_realm,
                    self.config.auth_password or "",
                    "INVITE",
                    destination,
                    self.config.auth_nonce,
                ),
            )

        self._calls[call_id] = CallRecord(dialog, branch, self.loop.now)
        self.metrics.counter("calls_attempted").increment()
        if self.config.abandon_after is not None:
            self.loop.schedule(
                self.config.abandon_after, self._maybe_abandon, call_id
            )
        self.client.start(
            invite, branch,
            on_response=lambda response: self._on_invite_response(call_id, response),
            on_timeout=lambda: self._on_invite_timeout(call_id),
            counter="invites_sent",
        )

    # ------------------------------------------------------------------
    # INVITE responses
    # ------------------------------------------------------------------
    def _on_invite_response(self, call_id: str, response: SipResponse) -> None:
        record = self._calls.get(call_id)
        if record is None:
            return
        if response.status == 100:
            if not record.got_100:
                record.got_100 = True
                self.metrics.counter("calls_with_100").increment()
            return
        if response.is_provisional:
            record.got_180 = True
            return
        if response.is_success:
            self._on_call_answered(record, response)
        else:
            if response.status == 503:
                self._note_retry_after(response)
            self._fail_call(record, f"invite_{response.status}")

    def _note_retry_after(self, response: SipResponse) -> None:
        """Account for (and optionally honour) a 503's Retry-After."""
        value = response.get("Retry-After")
        if value is None:
            return
        self.metrics.counter("retry_after_received").increment()
        if not self.config.respect_retry_after:
            return
        from repro.core.control import parse_retry_after

        hold = parse_retry_after(value)
        if hold:
            self._backoff_until = max(
                self._backoff_until, self.loop.now + hold
            )

    def _on_call_answered(self, record: CallRecord, response: SipResponse) -> None:
        if record.state != "inviting":
            return
        record.state = "answered"
        record.answered_at = self.loop.now
        record.dialog.confirm(response)
        self.metrics.histogram("invite_response_time").observe(
            record.answered_at - record.created_at
        )
        self._note_recovery(
            self.client.transactions.get((record.invite_branch, "INVITE")),
            record.answered_at - record.created_at,
        )
        self.client.ack(record.dialog, response)
        call_id = record.dialog.call_id
        if self.config.hold_time > 0:
            hold = self._draw_hold_time()
            refresh = self.config.reinvite_after
            if refresh is not None and hold > refresh:
                self.loop.schedule(refresh, self._send_reinvite, call_id)
            self.loop.schedule(hold, self._send_bye, call_id)
        else:
            self._send_bye(call_id)

    def _draw_hold_time(self) -> float:
        config = self.config
        if config.hold_dist == "lognormal":
            return config.hold_time * self._hold_rng.lognormal_unit_mean(
                config.hold_sigma
            )
        if config.hold_dist == "pareto":
            # Scale so the mean is exactly hold_time: E[X] = xm*a/(a-1).
            alpha = config.hold_alpha
            xm = config.hold_time * (alpha - 1.0) / alpha
            return self._hold_rng.pareto(alpha, xm)
        return config.hold_time

    # ------------------------------------------------------------------
    # Mid-call session refresh (re-INVITE)
    # ------------------------------------------------------------------
    def _send_reinvite(self, call_id: str) -> None:
        record = self._calls.get(call_id)
        if record is None or record.state != "answered":
            return
        record.dialog.cseq += 1
        branch = self.client.next_branch()
        self.client.start(
            record.dialog.request("INVITE", branch), branch,
            on_response=lambda response: self._on_reinvite_response(
                call_id, branch, response
            ),
            on_timeout=lambda: self._on_reinvite_timeout(branch),
            counter="reinvites_sent",
        )

    def _on_reinvite_response(
        self, call_id: str, branch: str, response: SipResponse
    ) -> None:
        if response.is_provisional:
            return
        self.client.reap(branch, "INVITE", harvest=True)
        record = self._calls.get(call_id)
        if record is None:
            return
        if response.is_success:
            self.metrics.counter("reinvites_confirmed").increment()
            if record.state == "answered":
                # Once the BYE went out the dialog is ending and the
                # refresh result no longer matters.
                self.client.ack(record.dialog, response)
        else:
            # A failed session refresh never tears down the call.
            self.metrics.counter("reinvites_failed").increment()

    def _on_reinvite_timeout(self, branch: str) -> None:
        self.client.reap(branch, "INVITE", harvest=True)
        self.metrics.counter("reinvites_timed_out").increment()

    def _maybe_abandon(self, call_id: str) -> None:
        record = self._calls.get(call_id)
        if record is None or record.state != "inviting":
            return
        self.metrics.counter("calls_abandoned").increment()
        # Still inviting: the dialog has no remote tag or route set yet
        # and its CSeq is the INVITE's, which the CANCEL carries with
        # the INVITE's branch.
        branch = record.invite_branch
        self.client.start(
            record.dialog.request("CANCEL", branch), branch,
            on_response=lambda response: self._on_cancel_response(
                branch, response),
            on_timeout=lambda: self.client.reap(branch, "CANCEL",
                                                harvest=True),
            counter="cancels_sent",
        )

    def _on_cancel_response(self, branch: str, response: SipResponse) -> None:
        # The 200 for the CANCEL is hop-by-hop bookkeeping; the call
        # itself ends when the 487 arrives on the INVITE transaction.
        if not response.is_provisional:
            self.client.reap(branch, "CANCEL", harvest=True)

    def _on_invite_timeout(self, call_id: str) -> None:
        record = self._calls.get(call_id)
        if record is None:
            return
        self._fail_call(record, "invite_timeout")

    # ------------------------------------------------------------------
    # Tear-down
    # ------------------------------------------------------------------
    def _send_bye(self, call_id: str) -> None:
        record = self._calls.get(call_id)
        if record is None or record.state != "answered":
            return
        record.state = "leaving"
        record.dialog.cseq += 1
        branch = self.client.next_branch()
        bye = record.dialog.request("BYE", branch)
        record.bye_sent_at = self.loop.now
        self.client.start(
            bye, branch,
            on_response=lambda response: self._on_bye_response(
                call_id, branch, response
            ),
            on_timeout=lambda: self._on_bye_timeout(call_id, branch),
            counter="byes_sent",
        )

    def _on_bye_response(
        self, call_id: str, branch: str, response: SipResponse
    ) -> None:
        record = self._calls.get(call_id)
        if record is None or response.is_provisional:
            return
        waited = self.loop.now - record.bye_sent_at
        if response.is_success:
            self._note_recovery(
                self.client.transactions.get((branch, "BYE")), waited)
        self.client.reap(branch, "BYE", harvest=True)
        self.metrics.histogram("bye_response_time").observe(waited)
        if response.is_success:
            record.state = "completed"
            record.completed_at = self.loop.now
            self.metrics.counter("calls_completed").increment()
            self._finish_call(record)
        else:
            self._fail_call(record, f"bye_{response.status}")

    def _on_bye_timeout(self, call_id: str, branch: str) -> None:
        self.client.reap(branch, "BYE", harvest=True)
        record = self._calls.get(call_id)
        if record is None:
            return
        self._fail_call(record, "bye_timeout")

    def _note_recovery(self, transaction, latency: float) -> None:
        """A transaction that succeeded *after* retransmitting was a call
        the network (or a crashed proxy) tried to lose: count it and its
        latency so the resilience experiment can report recoveries."""
        if transaction is None or transaction.retransmit_count == 0:
            return
        self.metrics.counter("calls_recovered_by_retransmission").increment()
        self.metrics.histogram("recovery_latency").observe(latency)

    def _fail_call(self, record: CallRecord, reason: str) -> None:
        if record.state in ("completed", "failed"):
            return
        record.state = "failed"
        self.metrics.counter("calls_failed").increment()
        self.metrics.counter(f"failure_{reason}").increment()
        self._finish_call(record)

    def _finish_call(self, record: CallRecord) -> None:
        self._calls.pop(record.dialog.call_id, None)
        self.client.reap(record.invite_branch, "INVITE", harvest=True)

    # ------------------------------------------------------------------
    # Crash/restart lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """A crashed load generator loses every call it was driving."""
        lost = len(self._calls)
        if lost:
            self.metrics.counter("calls_lost_on_crash").increment(lost)
        self.client.abort_all()
        self._calls.clear()
        self._running = False

    def on_restart(self) -> None:
        self.start()

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: SipMessage, src: str) -> None:
        if isinstance(message, SipResponse):
            self.client.dispatch(message)
        else:
            self.metrics.counter("stray_requests").increment()

    def _answered_dialog(self, call_id: str) -> Optional[Dialog]:
        """The dialog a late 2xx re-ACKs: its call was answered (the
        BYE may be out)."""
        record = self._calls.get(call_id)
        if record is not None and record.state in ("answered", "leaving"):
            return record.dialog
        return None

    # ------------------------------------------------------------------
    # Harness-facing statistics
    # ------------------------------------------------------------------
    @property
    def calls_attempted(self) -> int:
        return self.metrics.counter("calls_attempted").value

    @property
    def calls_completed(self) -> int:
        return self.metrics.counter("calls_completed").value

    @property
    def calls_failed(self) -> int:
        return self.metrics.counter("calls_failed").value

    @property
    def calls_with_100(self) -> int:
        return self.metrics.counter("calls_with_100").value

    def retransmissions(self) -> int:
        """Total request retransmissions across all transactions so far."""
        live = sum(txn.retransmit_count
                   for txn in self.client.transactions.values())
        return self.metrics.counter("retransmits_harvested").value + live
