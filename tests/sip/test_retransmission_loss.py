"""Retransmission behaviour under message loss (RFC 3261 section 17).

Three layers:

1. exact Timer A / Timer E schedules when every message is lost
   (send times asserted to the tick, plus the Timer B/F deadlines),
2. client transactions joined to a stub server by a deterministic
   Bernoulli lossy channel -- every transaction must eventually
   complete at 5% and 30% loss, with retransmission volume growing
   with the loss rate,
3. a full two-proxies-in-series scenario with a lossy access link,
   where the stateful entry proxy plus the UAC's retransmissions must
   recover nearly every call.

All randomness flows through seeded :class:`~repro.sim.rng.RngStream`
substreams, so the battery is bit-deterministic.
"""

import pytest

from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest, SipResponse
from repro.sip.timers import TimerPolicy
from repro.sip.transaction import ClientTransaction, TransactionState
from repro.workloads.scenarios import ScenarioConfig, two_series

TIMERS = TimerPolicy(t1=0.1, t2=0.4, t4=0.4)

#: Timer A doubling from t1=0.1: sends at 0, .1, .3, .7, 1.5, 3.1, 6.3;
#: Timer B (64*t1) then kills the transaction at 6.4.
INVITE_SEND_TIMES = [0.0, 0.1, 0.3, 0.7, 1.5, 3.1, 6.3]

#: Timer E doubles but caps at T2=0.4: 0, .1, .3, .7 then every 0.4.
BYE_SEND_TIMES = [0.0, 0.1, 0.3] + [round(0.7 + 0.4 * k, 10) for k in range(15)]


def make_request(method="INVITE", index=0):
    request = SipRequest.build(
        method,
        uri="sip:u@example.com",
        from_addr="sip:caller@example.com",
        to_addr="sip:u@example.com",
        call_id=f"c{index}",
        cseq=1 if method in ("INVITE", "ACK") else 2,
        from_tag="ft",
    )
    request.push_via(Via("uac", branch=f"z9hG4bKloss{index}"))
    return request


class BlackHoleHarness:
    """Client transaction whose wire drops everything: pure timer study."""

    def __init__(self, method):
        self.loop = EventLoop()
        self.send_times = []
        self.timed_out_at = None
        self.request = make_request(method)
        self.txn = ClientTransaction(
            self.request,
            self.loop,
            send_fn=lambda message: self.send_times.append(self.loop.now),
            on_response=lambda response: None,
            on_timeout=self._on_timeout,
            timers=TIMERS,
        )

    def _on_timeout(self):
        self.timed_out_at = self.loop.now


class TestLossTimerSchedules:
    """Exact retransmission timetables when no message ever arrives."""

    def test_invite_timer_a_doubles_to_timer_b(self):
        h = BlackHoleHarness("INVITE")
        h.txn.start()
        h.loop.run_until(10.0)
        assert h.send_times == pytest.approx(INVITE_SEND_TIMES)
        assert h.txn.retransmit_count == len(INVITE_SEND_TIMES) - 1
        assert h.timed_out_at == pytest.approx(TIMERS.timer_b)
        assert h.txn.state == TransactionState.TERMINATED

    def test_invite_alive_just_before_timer_b(self):
        h = BlackHoleHarness("INVITE")
        h.txn.start()
        h.loop.run_until(TIMERS.timer_b - 0.05)
        assert h.timed_out_at is None
        h.loop.run_until(TIMERS.timer_b + 0.05)
        assert h.timed_out_at is not None

    def test_bye_timer_e_caps_at_t2_until_timer_f(self):
        h = BlackHoleHarness("BYE")
        h.txn.start()
        h.loop.run_until(10.0)
        assert h.send_times == pytest.approx(BYE_SEND_TIMES)
        assert h.timed_out_at == pytest.approx(TIMERS.timer_f)

    def test_late_provisional_disarms_invite_retransmit(self):
        h = BlackHoleHarness("INVITE")
        h.txn.start()
        h.loop.run_until(0.75)  # three retransmits already gone
        h.txn.receive_response(SipResponse.for_request(h.request, 100))
        h.loop.run_until(5.0)
        assert h.send_times == pytest.approx(INVITE_SEND_TIMES[:4])
        assert h.timed_out_at is None  # Timer B still pending at 6.4
        h.loop.run_until(TIMERS.timer_b + 0.1)
        assert h.timed_out_at is not None  # provisional alone never completes


LATENCY = 0.005


class LossyPair:
    """A client transaction and a stub server over a Bernoulli-lossy wire.

    The server answers ``status`` as soon as the request first arrives
    and answers every retransmission from that stored final, so only
    the client's retransmissions (Timer A / E) push the final through
    the lossy channel; ACKs end at the server.
    """

    def __init__(self, loop, rng, method, status, loss, index):
        self.loop = loop
        self.rng = rng
        self.loss = loss
        self.status = status
        self.final = None
        self.timed_out = False
        self.server_final = None
        self.request = make_request(method, index)
        self.client = ClientTransaction(
            self.request,
            loop,
            send_fn=self._client_to_server,
            on_response=self._on_response,
            on_timeout=self._on_timeout,
            timers=TIMERS,
        )

    # -- wire ----------------------------------------------------------
    def _client_to_server(self, message):
        if not self.rng.bernoulli(self.loss):
            self.loop.schedule(LATENCY, self._server_receive, message)

    def _server_to_client(self, response):
        if not self.rng.bernoulli(self.loss):
            self.loop.schedule(LATENCY, self.client.receive_response, response)

    # -- endpoints -----------------------------------------------------
    def _server_receive(self, message):
        if message.method == "ACK":
            return
        if self.server_final is None:
            self.server_final = SipResponse.for_request(
                message, self.status, to_tag="ut")
        self._server_to_client(self.server_final)

    def _on_response(self, response):
        if not response.is_provisional:
            self.final = response.status

    def _on_timeout(self):
        self.timed_out = True


def run_lossy_batch(method, status, loss, count=40, seed=2024):
    loop = EventLoop()
    rng = RngStream(seed, f"{method}-loss{loss}")
    pairs = [
        LossyPair(loop, rng.spawn(f"pair{i}"), method, status, loss, i)
        for i in range(count)
    ]
    for pair in pairs:
        pair.client.start()
    loop.run_until(2 * TIMERS.timer_b)
    return pairs


class TestLossyChannelCompletion:
    """Every transaction completes despite 5% / 30% Bernoulli loss."""

    @pytest.mark.parametrize("loss", [0.0, 0.05, 0.30])
    def test_invite_all_complete(self, loss):
        pairs = run_lossy_batch("INVITE", 486, loss)
        assert all(pair.final == 486 for pair in pairs)
        assert not any(pair.timed_out for pair in pairs)

    @pytest.mark.parametrize("loss", [0.0, 0.05, 0.30])
    def test_bye_all_complete(self, loss):
        pairs = run_lossy_batch("BYE", 200, loss)
        assert all(pair.final == 200 for pair in pairs)
        assert not any(pair.timed_out for pair in pairs)

    def test_retransmissions_scale_with_loss(self):
        volumes = {}
        for loss in (0.0, 0.05, 0.30):
            pairs = run_lossy_batch("INVITE", 486, loss)
            volumes[loss] = sum(p.client.retransmit_count for p in pairs)
        assert volumes[0.0] == 0  # clean channel: final beats Timer A
        assert 0 < volumes[0.05] < volumes[0.30]

    def test_lossy_batches_are_deterministic(self):
        first = [
            p.client.retransmit_count
            for p in run_lossy_batch("BYE", 200, 0.30)
        ]
        second = [
            p.client.retransmit_count
            for p in run_lossy_batch("BYE", 200, 0.30)
        ]
        assert first == second


def run_series_with_access_loss(loss):
    """Two stateful proxies in series; the UAC's access link drops
    ``loss`` of the packets in each direction."""
    config = ScenarioConfig(
        scale=50.0,
        seed=11,
        noise_sigma=0.30,
        monitor_period=0.5,
        timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2),
    )
    scenario = two_series(2000.0, policy="static", config=config)
    if loss:
        scenario.network.set_loss("uac1", "P1", loss)
    scenario.start()
    scenario.loop.run_until(4.0)
    scenario.stop_load()
    # Drain past Timer B/F (64 * 0.05 = 3.2 s) so stragglers resolve.
    scenario.loop.run_until(8.0)
    return scenario.generators[0]


class TestScenarioAccessLinkLoss:
    """End-to-end: a lossy access link is survivable, not free."""

    @pytest.mark.parametrize("loss", [0.0, 0.05, 0.30])
    def test_calls_complete_despite_loss(self, loss):
        generator = run_series_with_access_loss(loss)
        attempted = generator.calls_attempted
        assert attempted > 100
        floor = {0.0: 1.0, 0.05: 0.99, 0.30: 0.95}[loss]
        assert generator.calls_completed >= floor * attempted

    def test_retransmissions_monotone_in_loss(self):
        volumes = {
            loss: run_series_with_access_loss(loss).retransmissions()
            for loss in (0.0, 0.05, 0.30)
        }
        assert volumes[0.0] == 0  # uncongested, clean link
        assert 0 < volumes[0.05] < volumes[0.30]
