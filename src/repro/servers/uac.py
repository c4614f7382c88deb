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
from typing import Dict, List, Optional, Sequence

from repro.servers.node import Node
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sip.digest import make_authorization
from repro.sip.headers import Via
from repro.sip.sdp import SessionDescription
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy
from repro.sip.transaction import ClientTransaction


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
        from_domain: str = "clients.example.com",
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
        self.from_domain = from_domain
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
        "call_id", "destination", "created_at", "answered_at", "completed_at",
        "bye_sent_at", "state", "got_100", "got_180", "to_tag", "route_set",
        "cseq", "invite_branch", "from_uri", "from_tag",
    )

    def __init__(self, call_id: str, destination: str, created_at: float):
        self.call_id = call_id
        self.destination = destination
        self.created_at = created_at
        self.from_uri = ""
        self.from_tag = ""
        self.answered_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.bye_sent_at: Optional[float] = None
        self.state = "inviting"
        self.got_100 = False
        self.got_180 = False
        self.to_tag: Optional[str] = None
        self.route_set: List[str] = []
        self.cseq = 1
        self.invite_branch: Optional[str] = None


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
        kwargs.setdefault("model_cpu", False)
        super().__init__(name, loop, network, **kwargs)
        self.config = config
        self.timers = timers
        self._arrival_rng = self.rng.spawn("arrivals")
        # Holding-time draws get their own stream so enabling a
        # distribution never perturbs the arrival process (and vice
        # versa); hold_dist="fixed" draws nothing from it.
        self._hold_rng = self.rng.spawn("hold")
        self._calls: Dict[str, CallRecord] = {}
        self._transactions: Dict[tuple, ClientTransaction] = {}  # (branch, method)
        self._call_counter = 0
        self._branch_counter = 0
        self._running = False
        self._dest_index = 0
        # The SDP offer depends only on the generator's name, so its
        # wire form is rendered once and reused for every call.
        self._offer_body = SessionDescription.offer(name).to_body()
        # Optional count-only hook propagated to every client
        # transaction's retransmission timer (see repro.obs).
        self.timer_observer = None
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
    def _next_branch(self) -> str:
        self._branch_counter += 1
        return f"{Via.MAGIC_COOKIE}-{self.name}-{self._branch_counter}"

    def _start_call(self) -> None:
        self._call_counter += 1
        destination = self.config.destinations[self._dest_index]
        self._dest_index = (self._dest_index + 1) % len(self.config.destinations)
        call_id = f"{self.name}-call-{self._call_counter}"
        from_uri = f"sip:user{self._call_counter}@{self.config.from_domain}"
        invite = SipRequest.build(
            "INVITE",
            uri=destination,
            from_addr=from_uri,
            to_addr=destination,
            call_id=call_id,
            cseq=1,
            from_tag=f"uac-{self._call_counter}",
            body=self._offer_body,
        )
        # add() rather than set(): a freshly built request carries none
        # of these headers, so appending is equivalent and skips the
        # replace scan.
        invite.add("Contact", f"<sip:{self.name}>")
        invite.add("Content-Type", "application/sdp")
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
        branch = self._next_branch()
        invite.push_via(Via(self.name, branch=branch))

        record = CallRecord(call_id, destination, self.loop.now)
        record.invite_branch = branch
        record.from_uri = from_uri
        record.from_tag = f"uac-{self._call_counter}"
        self._calls[call_id] = record
        self.metrics.counter("calls_attempted").increment()
        if self.config.abandon_after is not None:
            self.loop.schedule(
                self.config.abandon_after, self._maybe_abandon, call_id
            )

        transaction = ClientTransaction(
            invite,
            self.loop,
            send_fn=self._make_sender("invites_sent"),
            on_response=lambda response: self._on_invite_response(call_id, response),
            on_timeout=lambda: self._on_invite_timeout(call_id),
            timers=self.timers,
        )
        transaction.timer_observer = self.timer_observer
        self._transactions[(branch, "INVITE")] = transaction
        transaction.start()

    def _make_sender(self, counter: str):
        def send(message: SipRequest) -> None:
            self.metrics.counter(counter).increment()
            self.send(self.config.first_hop, message)
        return send

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
        record.to_tag = response.to.tag
        record.route_set = list(response.get_all("Record-Route"))
        self.metrics.histogram("invite_response_time").observe(
            record.answered_at - record.created_at
        )
        self._note_recovery(
            self._transactions.get((record.invite_branch, "INVITE")),
            record.answered_at - record.created_at,
        )
        self._send_ack(record)
        if self.config.hold_time > 0:
            hold = self._draw_hold_time()
            refresh = self.config.reinvite_after
            if refresh is not None and hold > refresh:
                self.loop.schedule(refresh, self._send_reinvite, record.call_id)
            self.loop.schedule(hold, self._send_bye, record.call_id)
        else:
            self._send_bye(record.call_id)

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

    def _send_ack(self, record: CallRecord) -> None:
        ack = SipRequest.build(
            "ACK",
            uri=record.destination,
            from_addr=record.from_uri,
            to_addr=record.destination,
            call_id=record.call_id,
            cseq=record.cseq,
            from_tag=record.from_tag,
            to_tag=record.to_tag,
        )
        ack.set("CSeq", f"{record.cseq} ACK")
        for route in record.route_set:
            ack.add("Route", route)
        ack.push_via(Via(self.name, branch=self._next_branch()))
        self.metrics.counter("acks_sent").increment()
        self.send(self.config.first_hop, ack)

    # ------------------------------------------------------------------
    # Mid-call session refresh (re-INVITE)
    # ------------------------------------------------------------------
    def _send_reinvite(self, call_id: str) -> None:
        record = self._calls.get(call_id)
        if record is None or record.state != "answered":
            return
        record.cseq += 1
        reinvite = SipRequest.build(
            "INVITE",
            uri=record.destination,
            from_addr=record.from_uri,
            to_addr=record.destination,
            call_id=call_id,
            cseq=record.cseq,
            from_tag=record.from_tag,
            to_tag=record.to_tag,
        )
        reinvite.add("Contact", f"<sip:{self.name}>")
        for route in record.route_set:
            reinvite.add("Route", route)
        branch = self._next_branch()
        reinvite.push_via(Via(self.name, branch=branch))
        transaction = ClientTransaction(
            reinvite,
            self.loop,
            send_fn=self._make_sender("reinvites_sent"),
            on_response=lambda response: self._on_reinvite_response(
                call_id, branch, response
            ),
            on_timeout=lambda: self._on_reinvite_timeout(call_id, branch),
            timers=self.timers,
        )
        transaction.timer_observer = self.timer_observer
        self._transactions[(branch, "INVITE")] = transaction
        transaction.start()

    def _reap_reinvite_transaction(self, branch: str) -> None:
        transaction = self._transactions.pop((branch, "INVITE"), None)
        if transaction is not None:
            self.metrics.counter("retransmits_harvested").increment(
                transaction.retransmit_count
            )

    def _on_reinvite_response(
        self, call_id: str, branch: str, response: SipResponse
    ) -> None:
        if response.is_provisional:
            return
        self._reap_reinvite_transaction(branch)
        record = self._calls.get(call_id)
        if record is None:
            return
        if response.is_success:
            self.metrics.counter("reinvites_confirmed").increment()
            if record.state == "answered":
                # record.cseq is still the re-INVITE's CSeq, so the ACK
                # matches it; once the BYE went out the dialog is ending
                # and the refresh result no longer matters.
                self._send_ack(record)
        else:
            # A failed session refresh never tears down the call.
            self.metrics.counter("reinvites_failed").increment()

    def _on_reinvite_timeout(self, call_id: str, branch: str) -> None:
        self._reap_reinvite_transaction(branch)
        self.metrics.counter("reinvites_timed_out").increment()

    def _maybe_abandon(self, call_id: str) -> None:
        record = self._calls.get(call_id)
        if record is None or record.state != "inviting":
            return
        self.metrics.counter("calls_abandoned").increment()
        cancel = SipRequest.build(
            "CANCEL",
            uri=record.destination,
            from_addr=record.from_uri,
            to_addr=record.destination,
            call_id=call_id,
            cseq=1,
            from_tag=record.from_tag,
        )
        cancel.set("CSeq", "1 CANCEL")
        cancel.push_via(Via(self.name, branch=record.invite_branch))
        transaction = ClientTransaction(
            cancel,
            self.loop,
            send_fn=self._make_sender("cancels_sent"),
            on_response=lambda response: self._on_cancel_response(
                call_id, response
            ),
            on_timeout=lambda: None,
            timers=self.timers,
        )
        transaction.timer_observer = self.timer_observer
        self._transactions[(record.invite_branch, "CANCEL")] = transaction
        transaction.start()

    def _on_cancel_response(self, call_id: str, response: SipResponse) -> None:
        # The 200 for the CANCEL is hop-by-hop bookkeeping; the call
        # itself ends when the 487 arrives on the INVITE transaction.
        record = self._calls.get(call_id)
        if record is not None and record.invite_branch:
            self._transactions.pop((record.invite_branch, "CANCEL"), None)

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
        record.cseq += 1
        bye = SipRequest.build(
            "BYE",
            uri=record.destination,
            from_addr=record.from_uri,
            to_addr=record.destination,
            call_id=call_id,
            cseq=record.cseq,
            from_tag=record.from_tag,
            to_tag=record.to_tag,
        )
        for route in record.route_set:
            bye.add("Route", route)
        branch = self._next_branch()
        bye.push_via(Via(self.name, branch=branch))
        record.bye_sent_at = self.loop.now
        transaction = ClientTransaction(
            bye,
            self.loop,
            send_fn=self._make_sender("byes_sent"),
            on_response=lambda response: self._on_bye_response(
                call_id, branch, response
            ),
            on_timeout=lambda: self._on_bye_timeout(call_id, branch),
            timers=self.timers,
        )
        transaction.timer_observer = self.timer_observer
        self._transactions[(branch, "BYE")] = transaction
        transaction.start()

    def _reap_bye_transaction(self, branch: str) -> None:
        transaction = self._transactions.pop((branch, "BYE"), None)
        if transaction is not None:
            self.metrics.counter("retransmits_harvested").increment(
                transaction.retransmit_count
            )

    def _on_bye_response(
        self, call_id: str, branch: str, response: SipResponse
    ) -> None:
        record = self._calls.get(call_id)
        if record is None or response.is_provisional:
            return
        sent_at = record.bye_sent_at
        if sent_at is None:  # defensive: BYE response without a sent BYE
            sent_at = self.loop.now
        if response.is_success:
            self._note_recovery(
                self._transactions.get((branch, "BYE")), self.loop.now - sent_at
            )
        self._reap_bye_transaction(branch)
        self.metrics.histogram("bye_response_time").observe(self.loop.now - sent_at)
        if response.is_success:
            record.state = "completed"
            record.completed_at = self.loop.now
            self.metrics.counter("calls_completed").increment()
            self._finish_call(record)
        else:
            self._fail_call(record, f"bye_{response.status}")

    def _on_bye_timeout(self, call_id: str, branch: str) -> None:
        self._reap_bye_transaction(branch)
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
        self._calls.pop(record.call_id, None)
        if record.invite_branch:
            transaction = self._transactions.pop(
                (record.invite_branch, "INVITE"), None
            )
            if transaction is not None:
                self.metrics.counter("retransmits_harvested").increment(
                    transaction.retransmit_count
                )

    # ------------------------------------------------------------------
    # Crash/restart lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """A crashed load generator loses every call it was driving."""
        lost = len(self._calls)
        if lost:
            self.metrics.counter("calls_lost_on_crash").increment(lost)
        for transaction in self._transactions.values():
            transaction.abort()
        self._transactions.clear()
        self._calls.clear()
        self._running = False

    def on_restart(self) -> None:
        self.start()

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def handle_message(self, payload, src: str) -> None:
        if not isinstance(payload, SipMessage):
            return  # UACs ignore control traffic (overload reports)
        if isinstance(payload, SipResponse):
            self._dispatch_response(payload)
        else:
            self.metrics.counter("stray_requests").increment()

    def _dispatch_response(self, response: SipResponse) -> None:
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
        # Late/duplicate responses: a retransmitted 200 for an already
        # terminated INVITE transaction means our ACK was lost; re-ACK.
        record = self._calls.get(response.call_id)
        if record is not None and response.is_success and record.state in (
            "answered", "leaving",
        ):
            try:
                if response.cseq.method == "INVITE":
                    self.metrics.counter("acks_resent").increment()
                    self._send_ack(record)
                    return
            except Exception:
                pass
        self.metrics.counter("late_responses").increment()

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
        live = sum(txn.retransmit_count for txn in self._transactions.values())
        return self.metrics.counter("retransmits_harvested").value + live
