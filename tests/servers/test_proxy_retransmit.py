"""Unit tests for the proxy's downstream client-transaction behaviour.

A stateful proxy re-sends the forwarded request on the T1 schedule
until any response arrives (RFC 3261 16.6 step 10); these tests drive
that machinery directly with stub endpoints and no link loss, checking
the schedule, cancellation and lifetime bounds.
"""

import pytest

from repro.core.costmodel import CostModel
from repro.core.static_policy import stateful_policy
from repro.servers.location import LocationService
from repro.servers.proxy import (
    DELIVER_ACTION,
    ProxyConfig,
    ProxyServer,
    RouteTable,
)
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import TimerPolicy

TIMERS = TimerPolicy(t1=0.1, t2=0.4, t4=0.4)


class Stub:
    def __init__(self, name, network):
        self.name = name
        self.received = []
        network.register(name, self)

    def receive(self, packet):
        self.received.append(packet.payload)

    def requests(self, method):
        return [m for m in self.received
                if isinstance(m, SipRequest) and m.method == method]


def make_env():
    loop = EventLoop()
    rng = RngStream(31, "retr-test")
    network = Network(loop, rng.spawn("net"))
    uac = Stub("uac", network)
    dst = Stub("dst", network)
    location = LocationService()
    location.register("sip:bob@far.example.net", "dst")
    proxy = ProxyServer(
        "P1", loop, network,
        route_table=RouteTable().add("far.example.net", DELIVER_ACTION),
        location=location,
        policy=stateful_policy(),
        cost_model=CostModel(scale=1.0),
        timers=TIMERS,
        rng=rng,
        noise_sigma=0.0,
    )
    return loop, network, proxy, uac, dst


def make_invite(call_id="c1"):
    invite = SipRequest.build(
        "INVITE", "sip:bob@far.example.net", "sip:alice@near.example.net",
        "sip:bob@far.example.net", call_id, 1, "ft",
    )
    invite.push_via(Via("uac", branch=f"z9hG4bK-{call_id}"))
    return invite


def make_bye():
    bye = SipRequest.build(
        "BYE", "sip:bob@far.example.net", "sip:alice@near.example.net",
        "sip:bob@far.example.net", "c9", 2, "ft", to_tag="tt",
    )
    bye.add("Route", "<sip:P1;lr>")  # P1 owns this dialog's state
    bye.push_via(Via("uac", branch="z9hG4bK-bye"))
    return bye


class TestDownstreamRetransmission:
    def test_retransmits_on_t1_schedule_without_response(self):
        loop, network, proxy, uac, dst = make_env()
        network.send("uac", "P1", make_invite())
        loop.run_until(0.05)
        assert len(dst.requests("INVITE")) == 1
        loop.run_until(0.15)  # first retransmit at ~0.1
        assert len(dst.requests("INVITE")) == 2
        loop.run_until(0.35)  # doubling: next at ~0.3
        assert len(dst.requests("INVITE")) == 3
        assert proxy.metrics.counter("downstream_retransmits").value == 2

    def test_same_branch_on_retransmits(self):
        loop, network, proxy, uac, dst = make_env()
        network.send("uac", "P1", make_invite())
        loop.run_until(0.5)
        branches = {m.top_via.branch for m in dst.requests("INVITE")}
        assert len(branches) == 1

    def test_any_response_stops_retransmission(self):
        loop, network, proxy, uac, dst = make_env()
        network.send("uac", "P1", make_invite())
        loop.run_until(0.05)
        forwarded = dst.requests("INVITE")[0]
        network.send("dst", "P1", SipResponse.for_request(forwarded, 180,
                                                          to_tag="t"))
        loop.run_until(2.0)
        assert len(dst.requests("INVITE")) == 1
        assert proxy.metrics.counter("downstream_retransmits").value == 0

    def test_gives_up_at_timer_b(self):
        loop, network, proxy, uac, dst = make_env()
        network.send("uac", "P1", make_invite())
        loop.run_until(TIMERS.timer_b + 2.0)
        count = len(dst.requests("INVITE"))
        loop.run_until(TIMERS.timer_b + 10.0)
        assert len(dst.requests("INVITE")) == count  # no further sends

    def test_expiry_cancels_pending_retransmit(self):
        loop, network, proxy, uac, dst = make_env()
        network.send("uac", "P1", make_invite())
        loop.run_until(0.05)
        (transaction,) = proxy._transactions.values()
        transaction.expire()
        before = len(dst.requests("INVITE"))
        loop.run_until(3.0)
        assert len(dst.requests("INVITE")) == before

    def test_bye_retransmits_too(self):
        loop, network, proxy, uac, dst = make_env()
        network.send("uac", "P1", make_bye())
        loop.run_until(0.15)
        assert len(dst.requests("BYE")) == 2  # initial + one retransmit


def record_sends(proxy, loop):
    """List of ``(time, dst, message)`` for everything ``proxy`` sends."""
    sent = []
    real_send = proxy.send

    def send(dst, payload):
        sent.append((loop.now, dst, payload))
        real_send(dst, payload)

    proxy.send = send
    return sent


def downstream(sent, method):
    """``(time, branch)`` of each ``method`` request sent to ``dst``."""
    return [(at, message.top_via.branch) for at, dst, message in sent
            if dst == "dst" and isinstance(message, SipRequest)
            and message.method == method]


def offsets(times, start):
    return [at - start for at in times]


def events_at(loop, when):
    """Events the loop runs at exactly ``when`` (run up to it first)."""
    loop.run_until(when - 1e-9)
    before = loop.events_processed
    loop.run_until(when)
    return loop.events_processed - before


def proxy_state(proxy):
    return (dict(proxy._transactions), dict(proxy._by_forwarded_branch),
            proxy.state_account.snapshot(), proxy.metrics.snapshot())


#: Re-send offsets from the first send, in multiples of T1.
INVITE_RESENDS = [1, 3, 7, 15, 31, 63]  # T1 doubling, never capped
BYE_RESENDS = [1, 3] + [7 + 4 * k for k in range(15)]  # capped at T2 = 4*T1


class TestExactSchedule:
    """The proxy's downstream re-send schedule, to the event.

    Every time is the proxy's own send time, taken relative to the
    first send (the instant the transaction is created).
    """

    @pytest.mark.parametrize("method, multiples", [
        ("INVITE", INVITE_RESENDS), ("BYE", BYE_RESENDS),
    ])
    def test_resend_times(self, method, multiples):
        loop, network, proxy, uac, dst = make_env()
        sent = record_sends(proxy, loop)
        network.send("uac", "P1", make_invite() if method == "INVITE"
                     else make_bye())
        loop.run_until(TIMERS.timer_b + 2.0)
        times = [at for at, _branch in downstream(sent, method)]
        assert offsets(times[1:], times[0]) == pytest.approx(
            [m * TIMERS.t1 for m in multiples])
        assert proxy.metrics.counter("downstream_retransmits").value == len(
            multiples)

    @pytest.mark.parametrize("method", ["INVITE", "BYE"])
    def test_nothing_sent_from_timer_b_on(self, method):
        loop, network, proxy, uac, dst = make_env()
        sent = record_sends(proxy, loop)
        network.send("uac", "P1", make_invite() if method == "INVITE"
                     else make_bye())
        loop.run_until(0.05)
        created = downstream(sent, method)[0][0]
        timer_b = created + TIMERS.timer_b
        loop.run_until(timer_b - 1e-9)
        assert proxy.active_transactions == 1
        assert events_at(loop, timer_b) == 1
        assert proxy.active_transactions == 0
        assert proxy._by_forwarded_branch == {}
        loop.run_until(timer_b + 10.0)
        assert all(at < timer_b for at, _ in downstream(sent, method))

    def test_timer_b_after_linger_expiry_is_one_silent_event(self):
        loop, network, proxy, uac, dst = make_env()
        sent = record_sends(proxy, loop)
        network.send("uac", "P1", make_invite())
        loop.run_until(0.05)
        created = downstream(sent, "INVITE")[0][0]
        forwarded = dst.requests("INVITE")[0]
        network.send("dst", "P1", SipResponse.for_request(forwarded, 486,
                                                          to_tag="t"))
        timer_b = created + TIMERS.timer_b
        loop.run_until(timer_b - 1e-9)  # txn_linger (4 s) has run out
        assert proxy.active_transactions == 0
        state, count = proxy_state(proxy), len(sent)
        assert events_at(loop, timer_b) == 1
        assert proxy_state(proxy) == state
        assert len(sent) == count

    def test_superseded_transaction(self):
        """Two copies of one INVITE both planned before either runs: the
        second overwrites the first's table entry.  The first chain's
        next fire is one event that sends nothing, and its Timer B only
        forgets its own branch; the second keeps its whole schedule."""
        loop, network, proxy, uac, dst = make_env()
        sent = record_sends(proxy, loop)
        network.send("uac", "P1", make_invite())
        network.send("uac", "P1", make_invite())
        loop.run_until(0.05)
        (old_at, old_branch), (new_at, new_branch) = downstream(
            sent, "INVITE")
        assert old_at < new_at and old_branch != new_branch
        assert proxy.metrics.counter("transactions_created").value == 2
        (key, current), = proxy._transactions.items()
        assert current.forwarded_branch == new_branch
        assert set(proxy._by_forwarded_branch) == {old_branch, new_branch}

        count = len(sent)
        assert events_at(loop, old_at + TIMERS.t1) == 1
        assert len(sent) == count
        assert events_at(loop, old_at + 3 * TIMERS.t1) == 0

        old_timer_b = old_at + TIMERS.timer_b
        loop.run_until(old_timer_b - 1e-9)
        live = proxy.state_account.live["transaction"]
        count = len(sent)
        assert events_at(loop, old_timer_b) == 1
        assert len(sent) == count
        assert proxy._transactions == {key: current}
        assert proxy._by_forwarded_branch == {new_branch: current}
        assert proxy.state_account.live["transaction"] == live

        loop.run_until(new_at + TIMERS.timer_b)
        assert proxy.active_transactions == 0
        assert proxy._by_forwarded_branch == {}
        resends = downstream(sent, "INVITE")[2:]
        assert {branch for _, branch in resends} == {new_branch}
        assert offsets([at for at, _ in resends], new_at) == pytest.approx(
            [m * TIMERS.t1 for m in INVITE_RESENDS])

    def test_crash_mid_chain(self):
        """A crash stops the chain; the old Timer B leaves the
        transaction that the same key names after the restart alone."""
        loop, network, proxy, uac, dst = make_env()
        sent = record_sends(proxy, loop)
        network.send("uac", "P1", make_invite())
        loop.run_until(0.2)  # one re-send, at T1
        (old_at, old_branch), _resend = downstream(sent, "INVITE")
        proxy.crash()
        crashed_at = loop.now
        loop.run_until(0.25)
        proxy.restart()
        network.send("uac", "P1", make_invite())
        loop.run_until(0.3)
        (key, current), = proxy._transactions.items()
        new_branch = current.forwarded_branch
        new_at, branch = downstream(sent, "INVITE")[2]
        assert branch == new_branch != old_branch

        old_timer_b = old_at + TIMERS.timer_b
        loop.run_until(old_timer_b - 1e-9)
        count = len(sent)
        assert events_at(loop, old_timer_b) == 1
        assert len(sent) == count
        assert proxy._transactions == {key: current}
        assert proxy._by_forwarded_branch == {new_branch: current}

        loop.run_until(new_at + TIMERS.timer_b)
        assert proxy.active_transactions == 0
        sends = downstream(sent, "INVITE")
        assert all(at < crashed_at for at, branch in sends
                   if branch == old_branch)
        resends = [at for at, branch in sends[3:]]
        assert {branch for _, branch in sends[3:]} == {new_branch}
        assert offsets(resends, new_at) == pytest.approx(
            [m * TIMERS.t1 for m in INVITE_RESENDS])


class TestStoredFinal:
    def test_second_final_replaces_what_the_replay_sends(self):
        """A second final for one transaction (a forked or re-sent 200)
        replaces the stored one: the next absorbed retransmission is
        answered with its text.  It arms no second linger: the first
        final's linger ends the transaction, and nothing fires
        ``txn_linger`` after the second."""
        loop, network, proxy, uac, dst = make_env()
        sent = record_sends(proxy, loop)
        network.send("uac", "P1", make_invite())
        loop.run_until(0.05)
        forwarded = dst.requests("INVITE")[0]
        upstream = []  # (time, final) forwarded to the uac
        for at, tag in ((0.05, "a"), (0.5, "b")):
            loop.run_until(at)
            network.send("dst", "P1", SipResponse.for_request(
                forwarded, 200, to_tag=tag))
            loop.run_until(at + 0.05)
            upstream += [(when, message) for when, to, message in sent
                         if to == "uac" and isinstance(message, SipResponse)
                         and message.is_final and message.to.tag == tag]
        (first_at, _first), (second_at, second) = upstream
        assert proxy.metrics.counter("responses_forwarded").value == 2

        count = len(sent)
        network.send("uac", "P1", make_invite())  # upstream retransmission
        loop.run_until(1.0)
        assert proxy.metrics.counter("retransmits_absorbed").value == 1
        (_at, to, replay), = sent[count:]
        assert to == "uac"
        assert replay.to_wire() == second.to_wire()
        assert replay.to.tag == "b"
        assert dst.requests("INVITE") == [forwarded]

        linger_end = first_at + proxy.config.txn_linger
        loop.run_until(linger_end - 1e-9)
        assert proxy.active_transactions == 1
        assert events_at(loop, linger_end) == 1
        assert proxy.active_transactions == 0
        assert proxy._by_forwarded_branch == {}
        assert events_at(loop, second_at + proxy.config.txn_linger) == 0


class TestViaEma:
    def test_ema_tracks_observed_depth(self):
        loop, network, proxy, uac, dst = make_env()
        deep = make_invite("deep")
        deep.push_via(Via("upstream", branch="z9hG4bK-up"))
        for index in range(40):
            invite = make_invite(f"d{index}")
            invite.push_via(Via("up", branch=f"z9hG4bK-u{index}"))
            network.send("uac", "P1", invite)
            loop.run_until(loop.now + 0.01)
        # All INVITEs arrived with one extra Via: the EMA approaches 1.
        assert proxy._via_ema > 0.7
        t_sf_deep, _ = proxy.state_thresholds()
        assert t_sf_deep < 10360  # depth discount applied

    def test_thresholds_at_depth_zero(self):
        loop, network, proxy, uac, dst = make_env()
        for index in range(40):
            network.send("uac", "P1", make_invite(f"s{index}"))
            loop.run_until(loop.now + 0.01)
        t_sf, t_sl = proxy.state_thresholds()
        assert t_sf == pytest.approx(10360, rel=0.02)
