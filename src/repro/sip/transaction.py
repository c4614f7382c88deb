"""RFC 3261 client and proxy transactions, and the 2xx retransmitter.

These are the objects whose creation, hashing and memory churn make a
*stateful* server expensive (paper Figure 3: the State / Hashing /
Memory bands).  :class:`ClientTransaction` (RFC 3261 17.1) is
transport-agnostic: it is driven by

- a ``scheduler`` exposing ``schedule(delay, fn, *args) -> handle`` with
  ``handle.cancel()`` (the sim's :class:`~repro.sim.events.EventLoop`
  satisfies this),
- a ``send_fn(message)`` that puts a message on the wire,
- callbacks into the transaction user.

Its INVITE variant runs Timers A (retransmit), B (timeout) and D
(linger), its non-INVITE variant Timers E, F and K.  Every node that
sends requests (the UAC, the B2BUA's leg B, the registrar client) keeps
its client transactions in one :class:`ClientCore`, which also matches
each response to its transaction.  No node runs an
RFC 17.2 server transaction: a stateful proxy keeps a
:class:`ProxyTransaction` per request it forwards or rejects, and an
answering node's only server-side timer work is re-sending its 2xx
until the ACK (RFC 13.3.1.4) -- :class:`AckWait`, at T1 doubling to T2
until Timer H.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sip.headers import SipHeaderError, Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy


class TransactionState(enum.Enum):
    CALLING = "calling"        # client INVITE: request sent, no response
    TRYING = "trying"          # client non-INVITE: request sent, no response
    PROCEEDING = "proceeding"  # provisional response seen
    COMPLETED = "completed"    # final response seen (non-2xx for INVITE)
    TERMINATED = "terminated"


class ClientTransaction:
    """UAC-side transaction (RFC 3261 17.1).

    Parameters
    ----------
    request:
        The request this transaction owns (Via already pushed).
    scheduler / send_fn:
        Environment hooks; see module docstring.
    on_response:
        Called once per response the TU should see (retransmitted final
        responses are absorbed).
    on_timeout:
        Called when Timer B / Timer F fires with no final response.
    """

    def __init__(
        self,
        request: SipRequest,
        scheduler: Any,
        send_fn: Callable[[SipRequest], Any],
        on_response: Callable[[SipResponse], Any],
        on_timeout: Callable[[], Any],
        timers: TimerPolicy = DEFAULT_TIMERS,
    ):
        # The three are dropped once no state can read them (_release).
        self.request: Optional[SipRequest] = request
        self.scheduler = scheduler
        self.send_fn = send_fn
        self.on_response: Optional[Callable[[SipResponse], Any]] = on_response
        self.on_timeout: Optional[Callable[[], Any]] = on_timeout
        self.timers = timers
        self.is_invite = request.method == "INVITE"
        self.state = TransactionState.CALLING if self.is_invite else TransactionState.TRYING
        self.retransmit_count = 0
        self._final_seen = False
        # The live timers; each is dropped when it fires or is cancelled.
        self._retransmit_handle: Optional[Any] = None  # Timer A / E
        self._timeout_handle: Optional[Any] = None  # Timer B / F
        self._linger_handle: Optional[Any] = None  # Timer D / K
        self._interval = timers.timer_a if self.is_invite else timers.timer_e
        # Optional count-only observability hook, called with the RFC
        # timer letter on each retransmission fire (see repro.obs).
        self.timer_observer: Optional[Callable[[str], Any]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Send the initial request and arm retransmission/timeout timers."""
        self.send_fn(self.request)
        self._retransmit_handle = self.scheduler.schedule(self._interval, self._retransmit)
        timeout = self.timers.timer_b if self.is_invite else self.timers.timer_f
        self._timeout_handle = self.scheduler.schedule(timeout, self._on_timeout_fired)

    def _retransmit(self) -> None:
        self._retransmit_handle = None
        if self.state not in (TransactionState.CALLING, TransactionState.TRYING,
                              TransactionState.PROCEEDING):
            return
        if self.is_invite and self.state == TransactionState.PROCEEDING:
            # INVITE retransmissions stop once a provisional arrives.
            return
        self.retransmit_count += 1
        if self.timer_observer is not None:
            self.timer_observer("timer-a" if self.is_invite else "timer-e")
        self.send_fn(self.request)
        self._interval = self.timers.next_retransmit_interval(self._interval, self.is_invite)
        self._retransmit_handle = self.scheduler.schedule(self._interval, self._retransmit)

    def _on_timeout_fired(self) -> None:
        self._timeout_handle = None
        if self._final_seen or self.state == TransactionState.TERMINATED:
            return
        on_timeout = self.on_timeout
        self._transition(TransactionState.TERMINATED)
        on_timeout()

    def abort(self) -> None:
        """Kill the transaction without firing any TU callback.

        Used when the transaction's host crashes: the process is gone,
        so on_timeout may not run.
        """
        self._final_seen = True
        self.state = TransactionState.TERMINATED
        self._cancel_timers()
        self._release(self.state)

    # ------------------------------------------------------------------
    # Response handling
    # ------------------------------------------------------------------
    def receive_response(self, response: SipResponse) -> None:
        """Feed a response into the machine; absorbs final retransmits."""
        if self.state == TransactionState.TERMINATED:
            return
        if response.is_provisional:
            if self.state in (TransactionState.CALLING, TransactionState.TRYING,
                              TransactionState.PROCEEDING):
                if self.state != TransactionState.PROCEEDING:
                    self.state = TransactionState.PROCEEDING
                self.on_response(response)
            return

        if self._final_seen:
            # Retransmitted final response: for non-2xx INVITE finals the
            # transaction re-ACKs; the TU never sees the duplicate.
            if self.is_invite and not response.is_success:
                self.send_fn(self._build_ack(response))
            return

        self._final_seen = True
        on_response = self.on_response
        if self.is_invite:
            if response.is_success:
                # 2xx: transaction terminates at once; the UAC core owns
                # the ACK (RFC 17.1.1.2).
                self._transition(TransactionState.TERMINATED)
            else:
                self.send_fn(self._build_ack(response))
                self._transition(TransactionState.COMPLETED)
                self._linger_handle = self.scheduler.schedule(
                    self.timers.timer_d, self._terminate)
        else:
            self._transition(TransactionState.COMPLETED)
            self._linger_handle = self.scheduler.schedule(
                self.timers.timer_k, self._terminate)
        on_response(response)

    def _build_ack(self, response: SipResponse) -> SipRequest:
        """ACK for a non-2xx INVITE final (RFC 17.1.1.3): same branch."""
        ack = SipRequest("ACK", self.request.uri)
        top_via = self.request.get_all("Via")
        if top_via:
            ack.add("Via", top_via[0])
        ack.set("From", self.request.get("From") or "")
        ack.set("To", response.get("To") or self.request.get("To") or "")
        ack.set("Call-ID", self.request.call_id)
        ack.set("CSeq", f"{self.request.cseq.number} ACK")
        ack.set("Max-Forwards", "70")
        return ack

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _terminate(self) -> None:
        self._linger_handle = None
        self._transition(TransactionState.TERMINATED)

    def _transition(self, state: TransactionState) -> None:
        """Enter COMPLETED or TERMINATED (the only states set here)."""
        if state == self.state:
            return
        self.state = state
        if state == TransactionState.COMPLETED:
            # Timer B/F stays armed: it fires into _on_timeout_fired,
            # which sees the final and does nothing.
            if self._retransmit_handle is not None:
                self._retransmit_handle.cancel()
                self._retransmit_handle = None
        else:
            self._cancel_timers()
        self._release(state)

    def _cancel_timers(self) -> None:
        for handle in (self._retransmit_handle, self._timeout_handle,
                       self._linger_handle):
            if handle is not None:
                handle.cancel()
        self._retransmit_handle = self._timeout_handle = None
        self._linger_handle = None

    def _release(self, state: TransactionState) -> None:
        """Drop what no code path of ``state`` reads.

        A finished transaction lingers for Timer D/K (or until its
        uncancelled Timer B/F fires) but only absorbs retransmitted
        finals: the TU is never called again, and only an INVITE's
        COMPLETED state re-ACKs from ``request`` (RFC 3261 17.1.1.3).
        The callers have taken the callback they still owe the TU.
        """
        self.on_response = self.on_timeout = None
        if not (self.is_invite and state == TransactionState.COMPLETED):
            self.request = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "INVITE" if self.is_invite else "non-INVITE"
        return f"<ClientTransaction {kind} {self.state.value}>"


class ClientCore:
    """The client side of one node that sends requests (RFC 3261 8.1).

    It keeps the node's client transactions by ``(branch, method)``,
    names their branches, and matches every response to its
    transaction.  ``owner`` is the node: the core uses its ``name``,
    ``loop``, ``timers``, ``metrics`` and ``send``, and sends every
    request and ACK to ``next_hop``.  A response that finds no live
    transaction is a retransmission: a 2xx to an INVITE whose dialog
    ``dialog_for(call_id)`` returns is re-ACKed (its ACK was lost), and
    anything else counts in ``late_responses``.
    """

    __slots__ = ("owner", "next_hop", "dialog_for", "transactions",
                 "timer_observer", "_branch_prefix", "_branch_count")

    def __init__(self, owner: Any, next_hop: str,
                 dialog_for: Optional[Callable[[str], Any]] = None,
                 branch_tag: str = ""):
        self.owner = owner
        self.next_hop = next_hop
        self.dialog_for = dialog_for
        self.transactions: Dict[Tuple[str, str], ClientTransaction] = {}
        # Count-only hook handed to every transaction it starts.
        self.timer_observer: Optional[Callable[[str], Any]] = None
        self._branch_prefix = f"{Via.MAGIC_COOKIE}-{owner.name}-{branch_tag}"
        self._branch_count = 0

    def next_branch(self) -> str:
        self._branch_count += 1
        return f"{self._branch_prefix}{self._branch_count}"

    def start(self, request: SipRequest, branch: str,
              on_response: Callable[[SipResponse], Any],
              on_timeout: Callable[[], Any],
              counter: Optional[str] = None) -> None:
        """Send ``request`` (its Via, with ``branch``, pushed) in a new
        client transaction; ``counter`` counts every transmission."""
        owner, next_hop = self.owner, self.next_hop
        if counter is None:
            def send(message: SipRequest) -> None:
                owner.send(next_hop, message)
        else:
            def send(message: SipRequest) -> None:
                owner.metrics.counter(counter).increment()
                owner.send(next_hop, message)
        transaction = ClientTransaction(
            request, owner.loop, send_fn=send, on_response=on_response,
            on_timeout=on_timeout, timers=owner.timers)
        transaction.timer_observer = self.timer_observer
        self.transactions[(branch, request.method)] = transaction
        transaction.start()

    def dispatch(self, response: SipResponse) -> None:
        """Match ``response`` by its top Via's branch and its CSeq
        method (a response to an ACK counts as the INVITE's)."""
        via = response.top_via
        branch = via.branch if via is not None else None
        try:
            method = response.cseq.method
        except SipHeaderError:
            method = "INVITE"
        if method == "ACK":
            method = "INVITE"
        transaction = self.transactions.get((branch, method)) if branch else None
        if transaction is not None and transaction.state is not TransactionState.TERMINATED:
            transaction.receive_response(response)
            return
        metrics = self.owner.metrics
        if (method == "INVITE" and response.is_success
                and self.dialog_for is not None):
            dialog = self.dialog_for(response.call_id)
            if dialog is not None:
                metrics.counter("acks_resent").increment()
                self.ack(dialog, response)
                return
        metrics.counter("late_responses").increment()

    def ack(self, dialog: Any, ok: SipResponse) -> None:
        """ACK the 2xx ``ok`` in ``dialog``: a request of its own,
        outside any transaction, with the CSeq number of the INVITE
        ``ok`` answers (RFC 3261 13.2.2.4)."""
        self.owner.metrics.counter("acks_sent").increment()
        self.owner.send(self.next_hop, dialog.request(
            "ACK", self.next_branch(), cseq=ok.cseq.number))

    def reap(self, branch: str, method: str, harvest: bool = False) -> None:
        """Forget a transaction; ``harvest`` keeps its retransmissions
        in the owner's ``retransmits_harvested``."""
        transaction = self.transactions.pop((branch, method), None)
        if harvest and transaction is not None:
            self.owner.metrics.counter("retransmits_harvested").increment(
                transaction.retransmit_count)

    def abort_all(self) -> None:
        """The owner crashed: every transaction dies without a word."""
        for transaction in self.transactions.values():
            transaction.abort()
        self.transactions.clear()


class ProxyTransaction:
    """What a stateful proxy keeps for one transaction.

    It replays ``final_wire`` (the text of the last final sent
    upstream) to absorb upstream retransmissions, and
    from :meth:`start_retransmitting` on re-sends the forwarded request
    at T1, doubling (capped at T2 for a non-INVITE), until any response
    (RFC 3261 16.6 step 10): a stateful chain hides loss between proxies
    from the end points, the paper's bounded response times in Figure 6.

    ``owner`` is the proxy, whose ``_transactions`` and
    ``_by_forwarded_branch`` tables :meth:`expire` leaves.  Timer B and
    the linger both call :meth:`expire` and neither is ever cancelled
    (the later one fires and only forgets the branch), so the
    transaction holds the handle of its re-send alone, dropped when it
    fires.  Out of the owner's table (expired, crashed, or superseded by
    a second copy of its request) it is ``terminated``: a pending
    re-send fires once and sends nothing, an expiry only forgets the
    branch.
    """

    __slots__ = (
        "owner", "key", "method", "upstream", "forwarded_branch",
        "final_wire", "completed", "forwarded_message",
        "next_hop", "response_seen", "terminated", "_interval",
        "_retransmit_handle",
    )

    def __init__(self, owner: Any, key: Tuple[str, str, str], method: str,
                 upstream: str, forwarded_branch: str):
        self.owner = owner
        self.key = key
        self.method = method
        self.upstream = upstream
        self.forwarded_branch = forwarded_branch
        self.final_wire: Optional[str] = None
        self.completed = False
        self.forwarded_message: Optional[SipRequest] = None
        self.next_hop: Optional[str] = None
        self.response_seen = False
        self.terminated = False
        self._interval = 0.0
        self._retransmit_handle: Optional[Any] = None

    def start_retransmitting(self, forwarded: SipRequest,
                             next_hop: str) -> None:
        """Re-send ``forwarded``, just sent to ``next_hop``, from T1 on."""
        self.forwarded_message = forwarded
        self.next_hop = next_hop
        self._interval = self.owner.timers.t1
        self._retransmit_handle = self.owner.loop.schedule(
            self._interval, self._retransmit)

    def stop_retransmitting(self) -> None:
        if self._retransmit_handle is not None:
            self._retransmit_handle.cancel()
            self._retransmit_handle = None
        # Only the re-send schedule reads the forwarded copy; a replay
        # reads ``final_wire``.
        self.forwarded_message = None

    def complete(self, final: SipResponse) -> None:
        """Keep ``final``'s text for replay; the first one starts the
        linger."""
        self.final_wire = final.to_wire()
        if not self.completed:
            self.completed = True
            self.owner.loop.schedule(self.owner.config.txn_linger,
                                     self.expire)

    def terminate(self) -> None:
        """Out of the owner's table: no fire re-sends or reaps again."""
        self.terminated = True
        self.final_wire = self.forwarded_message = None

    def expire(self) -> None:
        """Leave the owner: a live transaction is reaped from its table
        and state count; every one leaves the branch index."""
        owner = self.owner
        if not self.terminated:
            del owner._transactions[self.key]
            self.stop_retransmitting()
            owner.state_account.destroyed("transaction")
        self.terminate()
        owner._by_forwarded_branch.pop(self.forwarded_branch, None)

    def _retransmit(self) -> None:
        self._retransmit_handle = None
        if self.terminated:
            return
        owner = self.owner
        owner.metrics.counter("downstream_retransmits").increment()
        profiler = owner.cpu.profiler
        if profiler is not None:
            # Count-only: timer-driven re-sends charge no CPU in the
            # simulation, so the profiler must not invent seconds either.
            profiler.count("timer")
        owner.send(self.next_hop, self.forwarded_message.copy())
        self._interval = owner.timers.next_retransmit_interval(
            self._interval, invite=self.method == "INVITE")
        self._retransmit_handle = owner.loop.schedule(
            self._interval, self._retransmit)


class AckWait:
    """A sent 2xx to an INVITE, re-sent until its ACK (RFC 3261 13.3.1.4).

    A 2xx ends the INVITE server transaction at once, so the answering
    node (UAS, B2BUA leg A) keeps the 2xx itself.  Once ``owner`` has
    sent ``response`` to ``next_hop`` it builds the wait, which re-sends
    a copy at T1, doubling up to T2, until the owner cancels it (ACK,
    or the call ends) or Timer H (64*T1) passes, when the wait calls
    ``owner.ack_timed_out(wait)``.  The owner is a node: the wait uses
    its ``loop``, ``timers``, ``send`` and the ``ok_retransmits``
    counter, and reports ``"timer-ok"`` to ``timer_observer`` on every
    re-send.  ``initial`` tells the owner whether the 2xx answers an
    initial INVITE or a re-INVITE.

    The timers are keyed by Call-ID, not bound to the wait that armed
    them: when one fires it acts on ``owner.pending_ack(call_id)``, the
    wait the owner holds for that Call-ID then, and does nothing if
    there is none.  So a UAS that answers a new INVITE for a Call-ID
    whose earlier 200 still awaits its ACK keeps the earlier timers
    running against the new wait.  A handle holds the owner and the
    Call-ID, never the wait.
    """

    __slots__ = ("owner", "call_id", "response", "next_hop", "initial",
                 "timer_observer", "_interval", "_retransmit_handle",
                 "_deadline_handle")

    def __init__(self, owner: Any, call_id: str, response: SipResponse,
                 next_hop: str, initial: bool = True,
                 timer_observer: Optional[Callable[[str], Any]] = None):
        self.owner = owner
        self.call_id = call_id
        self.response = response
        self.next_hop = next_hop
        self.initial = initial
        self.timer_observer = timer_observer
        timers, loop = owner.timers, owner.loop
        self._interval = timers.t1
        self._retransmit_handle = loop.schedule(
            self._interval, _resend_pending, owner, call_id)
        self._deadline_handle = loop.schedule(
            timers.timer_h, _give_up_pending, owner, call_id)

    def replay(self) -> None:
        """Answer a retransmitted (re-)INVITE with a copy of the 2xx."""
        self.owner.send(self.next_hop, self.response.copy())

    def cancel(self) -> None:
        self._retransmit_handle.cancel()
        self._deadline_handle.cancel()

    def _resend(self) -> None:
        owner = self.owner
        owner.metrics.counter("ok_retransmits").increment()
        if self.timer_observer is not None:
            self.timer_observer("timer-ok")
        owner.send(self.next_hop, self.response.copy())
        self._interval = owner.timers.next_retransmit_interval(
            self._interval, invite=False)
        self._retransmit_handle = owner.loop.schedule(
            self._interval, _resend_pending, owner, self.call_id)


def _resend_pending(owner: Any, call_id: str) -> None:
    wait = owner.pending_ack(call_id)
    if wait is not None:
        wait._resend()


def _give_up_pending(owner: Any, call_id: str) -> None:
    wait = owner.pending_ack(call_id)
    if wait is not None:
        wait.cancel()
        owner.ack_timed_out(wait)
