"""RFC 3261 section 17 transaction state machines.

These are the objects whose creation, hashing and memory churn make a
*stateful* server expensive (paper Figure 3: the State / Hashing /
Memory bands).  The machines are transport-agnostic: they are driven by

- a ``scheduler`` exposing ``schedule(delay, fn, *args) -> handle`` with
  ``handle.cancel()`` (the sim's :class:`~repro.sim.events.EventLoop`
  satisfies this),
- a ``send_fn(message)`` that puts a message on the wire,
- callbacks into the transaction user (UAC core, UAS core, or proxy).

Both INVITE and non-INVITE variants are implemented, with the RFC's
timer lettering (A/B/D client-INVITE, E/F/K client-non-INVITE, G/H/I
server-INVITE, J server-non-INVITE).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import DEFAULT_TIMERS, TimerPolicy


class TransactionState(enum.Enum):
    CALLING = "calling"        # client INVITE: request sent, no response
    TRYING = "trying"          # client/server non-INVITE initial state
    PROCEEDING = "proceeding"  # provisional response seen/sent
    COMPLETED = "completed"    # final response seen/sent (non-2xx for INVITE)
    CONFIRMED = "confirmed"    # server INVITE: ACK received
    TERMINATED = "terminated"


class _TimerSet:
    """Tracks live timer handles so state changes can cancel them."""

    def __init__(self) -> None:
        self._handles: List[Any] = []

    def add(self, handle: Any) -> Any:
        self._handles.append(handle)
        return handle

    def cancel_all(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()


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
        on_terminated: Optional[Callable[[], Any]] = None,
    ):
        # The three are dropped once no state can read them (_release).
        self.request: Optional[SipRequest] = request
        self.scheduler = scheduler
        self.send_fn = send_fn
        self.on_response: Optional[Callable[[SipResponse], Any]] = on_response
        self.on_timeout: Optional[Callable[[], Any]] = on_timeout
        self.on_terminated = on_terminated
        self.timers = timers
        self.is_invite = request.method == "INVITE"
        self.state = TransactionState.CALLING if self.is_invite else TransactionState.TRYING
        self.retransmit_count = 0
        self._final_seen = False
        self._timer_handles = _TimerSet()
        self._retransmit_handle: Optional[Any] = None
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
        self._arm_retransmit(self._interval)
        timeout = self.timers.timer_b if self.is_invite else self.timers.timer_f
        self._timer_handles.add(self.scheduler.schedule(timeout, self._on_timeout_fired))

    def _arm_retransmit(self, interval: float) -> None:
        self._retransmit_handle = self.scheduler.schedule(interval, self._retransmit)
        self._timer_handles.add(self._retransmit_handle)

    def _retransmit(self) -> None:
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
        self._arm_retransmit(self._interval)

    def _on_timeout_fired(self) -> None:
        if self._final_seen or self.state == TransactionState.TERMINATED:
            return
        on_timeout = self.on_timeout
        self._transition(TransactionState.TERMINATED)
        on_timeout()

    def abort(self) -> None:
        """Kill the transaction without firing any TU callback.

        Used when the transaction's host crashes: the process is gone,
        so neither on_timeout nor on_terminated may run.
        """
        self._final_seen = True
        self.state = TransactionState.TERMINATED
        self._timer_handles.cancel_all()
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
                self._timer_handles.add(
                    self.scheduler.schedule(self.timers.timer_d, self._terminate)
                )
        else:
            self._transition(TransactionState.COMPLETED)
            self._timer_handles.add(
                self.scheduler.schedule(self.timers.timer_k, self._terminate)
            )
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
        self._transition(TransactionState.TERMINATED)

    def _transition(self, state: TransactionState) -> None:
        if state == self.state:
            return
        self.state = state
        if state in (TransactionState.COMPLETED, TransactionState.TERMINATED):
            if self._retransmit_handle is not None:
                self._retransmit_handle.cancel()
            self._release(state)
        if state == TransactionState.TERMINATED:
            self._timer_handles.cancel_all()
            if self.on_terminated is not None:
                self.on_terminated()

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


class ServerTransaction:
    """UAS/proxy-side transaction (RFC 3261 17.2).

    The crucial behaviour for the paper is *retransmission absorption*:
    in PROCEEDING/COMPLETED a retransmitted request is answered from the
    stored last response without bothering the transaction user -- the
    service a stateful proxy renders that a stateless one cannot.
    """

    def __init__(
        self,
        request: SipRequest,
        scheduler: Any,
        send_fn: Callable[[SipResponse], Any],
        timers: TimerPolicy = DEFAULT_TIMERS,
        on_ack: Optional[Callable[[SipRequest], Any]] = None,
        on_terminated: Optional[Callable[[], Any]] = None,
    ):
        # Dropped on TERMINATED: the machine itself only reads
        # ``is_invite``, and ``last_response`` answers retransmits.
        self.request: Optional[SipRequest] = request
        self.scheduler = scheduler
        self.send_fn = send_fn
        self.timers = timers
        self.on_ack = on_ack
        self.on_terminated = on_terminated
        self.is_invite = request.method == "INVITE"
        self.state = TransactionState.PROCEEDING if self.is_invite else TransactionState.TRYING
        self.last_response: Optional[SipResponse] = None
        self.absorbed_retransmits = 0
        self.response_retransmits = 0
        self._timer_handles = _TimerSet()
        self._retransmit_handle: Optional[Any] = None
        self._interval = timers.timer_g
        # Optional count-only observability hook (see ClientTransaction).
        self.timer_observer: Optional[Callable[[str], Any]] = None

    # ------------------------------------------------------------------
    # TU-facing API
    # ------------------------------------------------------------------
    def send_response(self, response: SipResponse) -> None:
        """Send a response from the TU through the transaction."""
        if self.state == TransactionState.TERMINATED:
            return
        self.last_response = response
        self.send_fn(response)
        if response.is_provisional:
            if self.state == TransactionState.TRYING:
                self.state = TransactionState.PROCEEDING
            return

        if self.is_invite:
            if response.is_success:
                # 2xx: terminate at once; the UAS core retransmits 200s
                # until the ACK arrives (RFC 13.3.1.4).
                self._transition(TransactionState.TERMINATED)
            else:
                self._transition(TransactionState.COMPLETED)
                self._arm_final_retransmit()
                self._timer_handles.add(
                    self.scheduler.schedule(self.timers.timer_h, self._terminate)
                )
        else:
            self._transition(TransactionState.COMPLETED)
            self._timer_handles.add(
                self.scheduler.schedule(self.timers.timer_j, self._terminate)
            )

    # ------------------------------------------------------------------
    # Wire-facing API
    # ------------------------------------------------------------------
    def receive_request(self, request: SipRequest) -> bool:
        """Feed a matching request (retransmit or ACK).

        Returns True when the request was consumed by the transaction
        (absorbed retransmit or ACK), False when the TU should see it.
        """
        if request.method == "ACK":
            if self.state == TransactionState.COMPLETED:
                self._transition(TransactionState.CONFIRMED)
                if self._retransmit_handle is not None:
                    self._retransmit_handle.cancel()
                self._timer_handles.add(
                    self.scheduler.schedule(self.timers.timer_i, self._terminate)
                )
            if self.on_ack is not None:
                self.on_ack(request)
            return True

        # A retransmission of the original request.
        if self.state in (TransactionState.PROCEEDING, TransactionState.COMPLETED):
            self.absorbed_retransmits += 1
            if self.last_response is not None:
                self.send_fn(self.last_response)
            return True
        if self.state == TransactionState.TRYING:
            # Nothing sent yet: silently absorb (RFC 17.2.2).
            self.absorbed_retransmits += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _arm_final_retransmit(self) -> None:
        self._retransmit_handle = self.scheduler.schedule(self._interval, self._retransmit_final)
        self._timer_handles.add(self._retransmit_handle)

    def _retransmit_final(self) -> None:
        if self.state != TransactionState.COMPLETED or self.last_response is None:
            return
        self.response_retransmits += 1
        if self.timer_observer is not None:
            self.timer_observer("timer-g")
        self.send_fn(self.last_response)
        self._interval = min(self._interval * 2, self.timers.t2)
        self._arm_final_retransmit()

    def _terminate(self) -> None:
        self._transition(TransactionState.TERMINATED)

    def _transition(self, state: TransactionState) -> None:
        if state == self.state:
            return
        self.state = state
        if state == TransactionState.TERMINATED:
            self._timer_handles.cancel_all()
            self.request = None
            if self.on_terminated is not None:
                self.on_terminated()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "INVITE" if self.is_invite else "non-INVITE"
        return f"<ServerTransaction {kind} {self.state.value}>"
