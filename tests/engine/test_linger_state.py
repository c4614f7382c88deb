"""A finished transaction keeps only what its linger state reads.

RFC 3261 keeps a finished transaction alive for Timer D/J/K (and a
proxy for its ``txn_linger``), longer than a measurement window, so at
window close most of the run's transactions are finished ones.  They
absorb retransmitted requests from their stored response; no code path
of theirs reads the request they once sent:

- a proxy transaction that saw a response never retransmits its
  ``forwarded_message`` again;
- a non-INVITE client transaction past COMPLETED only absorbs
  retransmitted finals (its request, and its TU callbacks, go even
  though an uncancelled Timer F still holds the transaction);
- only an INVITE client transaction in COMPLETED re-ACKs retransmitted
  non-2xx finals from its request (RFC 3261 17.1.1.3).

The census runs the benchmark's chain shape on both rungs, plus one
cell with loss and two proxy crashes, and counts what is left when the
run ends.  A timer due after the run's last deadline is never stored
(``EventLoop.horizon``), so a transaction that only such a timer holds
(a finished non-INVITE client transaction) does not outlive the run.
Each run closes with a short drain, so calls still in flight at window
close finish and what is left is linger state.  Requests that
an unfinished transaction still reads (a call a crash cut off waits for
its Timer B) are required and not counted against the bound.
"""

import gc

import pytest

from repro import api
from repro.harness.runner import run_scenario
from repro.servers.proxy import ProxyServer
from repro.sim.events import EventHandle, EventLoop
from repro.sip.message import SipMessage, SipRequest, SipResponse
from repro.sip.parser import parse_message
from repro.sip.transaction import (
    ClientTransaction,
    ProxyTransaction,
    TransactionState,
)

from tests.sip.test_transaction import TIMERS, make_request

ENGINES = ("reference", "turbo")
SEED = 11
#: Retained requests per completed call the census allows (3.0 when a
#: finished transaction kept every request it had sent).
PER_CALL = 0.05
UNFINISHED = (TransactionState.CALLING, TransactionState.TRYING,
              TransactionState.PROCEEDING)

#: name -> (rate, fault schedule or None, run_scenario window)
CELLS = {
    "chain": (10_000.0, None, dict(warmup=0.25, duration=0.5, drain=0.5)),
    "loss_crash": (
        8_000.0,
        lambda: api.FaultSchedule().set_loss(0.0, "P1", "P2", 0.10)
        .crash(0.35, "P1", downtime=0.1).crash(0.55, "P2", downtime=0.1),
        dict(warmup=0.25, duration=0.5, drain=0.5),
    ),
}


def _requests(objects) -> list:
    return [obj for obj in objects if type(obj) is SipRequest]


def _required(objects) -> set:
    """ids of the requests an unfinished transaction (or an INVITE
    awaiting retransmitted non-2xx finals) still reads."""
    held = set()
    for obj in objects:
        kind = type(obj)
        if kind is ClientTransaction and obj.request is not None and (
            obj.state in UNFINISHED
            or (obj.is_invite and obj.state is TransactionState.COMPLETED)
        ):
            held.add(id(obj.request))
        elif kind is ProxyTransaction and not obj.response_seen:
            if obj.forwarded_message is not None:
                held.add(id(obj.forwarded_message))
    return held


def _run_cell(name: str, engine: str):
    rate, faults, window = CELLS[name]
    scenario = api.make_scenario("n_series", n=2, rate=rate,
                                 policy="servartuka", engine=engine,
                                 seed=SEED)
    if faults is not None:
        scenario.install_faults(faults())
    gc.collect()
    before = {id(obj) for obj in _requests(gc.get_objects())}
    run_scenario(scenario, **window)
    gc.collect()
    objects = gc.get_objects()
    retained = [obj for obj in _requests(objects) if id(obj) not in before]
    calls = sum(server.calls_completed for server in scenario.servers)
    return scenario, objects, retained, calls


@pytest.fixture(scope="module", params=[
    (name, engine) for name in CELLS for engine in ENGINES
], ids=lambda cell: "-".join(cell))
def census(request):
    name, engine = request.param
    scenario, objects, retained, calls = _run_cell(name, engine)
    yield name, objects, retained, calls  # ``scenario`` stays alive meanwhile


def test_answered_proxy_transactions_drop_the_forwarded_copy(census):
    _name, objects, _retained, _calls = census
    answered = [obj for obj in objects
                if type(obj) is ProxyTransaction and obj.response_seen]
    assert answered, "no answered proxy transaction to inspect"
    assert sum(obj.forwarded_message is not None for obj in answered) == 0


def test_lingering_proxy_transactions_store_no_views(census):
    """A stored final is kept for replay only, on both rungs, as the
    text that went upstream: it parses back to that text, and a
    completed transaction refers to no message at all."""
    _name, objects, _retained, _calls = census
    transactions = [obj for obj in objects if type(obj) is ProxyTransaction]
    stored = [obj.final_wire for obj in transactions
              if obj.final_wire is not None]
    assert stored, "no lingering proxy transaction to inspect"
    for text in stored:
        assert type(text) is str
        assert parse_message(text).to_wire() == text
    completed = [obj for obj in transactions if obj.completed]
    assert completed
    assert [ref for obj in completed for ref in gc.get_referents(obj)
            if isinstance(ref, SipMessage)] == []


@pytest.mark.parametrize("engine", ENGINES)
def test_absorbed_retransmission_replays_the_final_sent(monkeypatch, engine):
    """What a proxy replays to absorb a retransmission is, on the wire,
    the final it first sent upstream, and it arrives view-free."""
    first_hand = {}  # (proxy, upstream) -> wires of finals sent first-hand
    replays = []     # (proxy, upstream, views at send, wire)
    absorbing = []
    real_send = ProxyServer.send
    real_absorb = ProxyServer._do_absorb

    def send(self, dst, payload):
        if isinstance(payload, SipResponse) and payload.is_final:
            if absorbing:
                replays.append((self.name, dst, dict(payload._cache),
                                payload.to_wire()))
            else:
                first_hand.setdefault((self.name, dst), set()).add(
                    payload.to_wire())
        real_send(self, dst, payload)

    def absorb(self, plan):
        absorbing.append(plan)
        try:
            real_absorb(self, plan)
        finally:
            absorbing.pop()

    monkeypatch.setattr(ProxyServer, "send", send)
    monkeypatch.setattr(ProxyServer, "_do_absorb", absorb)
    # Both proxies stateful, and responses lost on their way back from
    # P2: P1 retransmits, and P2 answers from its stored final.
    scenario = api.make_scenario("n_series", n=2, rate=8_000.0,
                                 policy="static", engine=engine, seed=SEED)
    scenario.install_faults(api.FaultSchedule().set_loss(0.0, "P2", "P1",
                                                         0.10))
    run_scenario(scenario, warmup=0.25, duration=0.5, drain=0.5)
    assert replays, "no retransmission was answered from a stored final"
    for name, upstream, views, wire in replays:
        assert views == {}
        assert wire in first_hand[(name, upstream)]


def test_finished_non_invite_client_transactions_drop_the_request(census):
    """None survives the run, request and all: only Timer K and the
    uncancelled Timer F hold a finished non-INVITE client transaction,
    and both fall due after the run's horizon, so the loop never stored
    them.  What one drops while it lingers is ``TestTransactionRelease``'s."""
    _name, objects, _retained, _calls = census
    finished = [
        obj for obj in objects
        if type(obj) is ClientTransaction and not obj.is_invite
        and obj.state not in UNFINISHED
    ]
    assert finished == []


def test_requests_retained_per_completed_call(census):
    name, objects, retained, calls = census
    assert calls > 100
    required = _required(objects)
    unrequired = [obj for obj in retained if id(obj) not in required]
    assert len(unrequired) <= PER_CALL * calls, (len(unrequired), calls)
    if name == "chain":
        # No loss: what is in flight at window close is all that is left.
        assert len(retained) <= PER_CALL * calls, (len(retained), calls)


class TestTransactionRelease:
    """The same rules on bare transaction machines."""

    def _client(self, method):
        loop = EventLoop()
        sent, seen = [], []
        txn = ClientTransaction(
            make_request(method), loop, send_fn=sent.append,
            on_response=seen.append, on_timeout=lambda: seen.append("timeout"),
            timers=TIMERS,
        )
        txn.start()
        return loop, txn, sent, seen

    def test_non_invite_final_releases_request_and_callbacks(self):
        loop, txn, _sent, seen = self._client("BYE")
        request = txn.request
        txn.receive_response(SipResponse.for_request(request, 200))
        assert txn.state is TransactionState.COMPLETED
        assert (txn.request, txn.on_response, txn.on_timeout) == (None,) * 3
        assert [r.status for r in seen] == [200]
        txn.receive_response(SipResponse.for_request(request, 200))
        loop.run_until(100.0)  # Timer K and the uncancelled Timer F
        assert txn.state is TransactionState.TERMINATED
        assert len(seen) == 1

    def test_invite_non_2xx_keeps_request_until_terminated(self):
        loop, txn, sent, seen = self._client("INVITE")
        request = txn.request
        txn.receive_response(SipResponse.for_request(request, 486))
        assert txn.state is TransactionState.COMPLETED
        assert txn.request is request
        assert txn.on_response is None and txn.on_timeout is None
        txn.receive_response(SipResponse.for_request(request, 486))
        assert [m.method for m in sent[1:]] == ["ACK", "ACK"]
        loop.run_until(100.0)
        assert txn.state is TransactionState.TERMINATED
        assert txn.request is None
        assert [r.status for r in seen] == [486]

    def test_timeout_still_reaches_the_tu(self):
        loop, txn, _sent, seen = self._client("BYE")
        loop.run_until(100.0)
        assert seen == ["timeout"]
        assert (txn.request, txn.on_response, txn.on_timeout) == (None,) * 3

    def test_abort_releases_everything(self):
        _loop, txn, _sent, seen = self._client("INVITE")
        txn.abort()
        assert (txn.request, txn.on_response, txn.on_timeout) == (None,) * 3
        assert seen == []

    @pytest.mark.parametrize("method", ["INVITE", "BYE"])
    def test_fired_timers_are_dropped(self, method):
        loop, txn, sent, _seen = self._client(method)
        loop.run_until(0.75)  # Timer A / E fired at 0.1, 0.3 and 0.7
        assert len(sent) == 4
        # The next Timer A / E and Timer B / F, then (the retransmit
        # timer cancelled and dropped) Timer B / F and Timer D / K.
        for final in (False, True):
            if final:
                txn.receive_response(
                    SipResponse.for_request(txn.request, 486))
            handles = _handles_held(txn, skip=loop)
            assert len(handles) == 2
            assert all(h.time > loop.now and not h.cancelled
                       for h in handles)
        loop.run_until(100.0)
        assert _handles_held(txn, skip=loop) == []


def _handles_held(root, skip, depth: int = 4) -> list:
    """Every EventHandle reachable from ``root`` in ``depth`` steps
    without passing through ``skip`` (the loop's own queue)."""
    found, seen, frontier = [], {id(skip)}, [root]
    for _ in range(depth):
        reached = []
        for obj in frontier:
            for ref in gc.get_referents(obj):
                if id(ref) in seen or isinstance(ref, type):
                    continue
                seen.add(id(ref))
                if isinstance(ref, EventHandle):
                    found.append(ref)
                reached.append(ref)
        frontier = reached
    return found
