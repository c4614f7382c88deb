"""Tests for REGISTER refresh churn against the proxy registrar."""

import pytest

from repro.core.costmodel import CostModel
from repro.core.static_policy import stateless_policy
from repro.servers.location import LocationService
from repro.servers.proxy import DELIVER_ACTION, ProxyServer, RouteTable
from repro.servers.registrar_client import RegistrarClient
from repro.servers.uac import CallGenerator, CallGeneratorConfig
from repro.servers.uas import AnsweringServer
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import Scenario, ScenarioConfig

TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)
AOR = "sip:carol@edge.example.net"


def make_env(refresh_interval=1.0, expires=2.0, lossy=False):
    loop = EventLoop()
    rng = RngStream(7, "regtest")
    network = Network(loop, rng.spawn("net"))
    location = LocationService()
    proxy = ProxyServer(
        "P1", loop, network,
        route_table=RouteTable().add("edge.example.net", DELIVER_ACTION),
        location=location,
        policy=stateless_policy(),
        cost_model=CostModel(scale=1.0),
        timers=TIMERS,
        rng=rng,
        noise_sigma=0.0,
    )
    uas = AnsweringServer("uas1", loop, network, timers=TIMERS, rng=rng)
    client = RegistrarClient(
        "uas1-reg", loop, network, registrar="P1", aors=[AOR],
        refresh_interval=refresh_interval, expires=expires,
        timers=TIMERS, rng=rng,
    )
    if lossy:
        network.set_link("uas1-reg", "P1", loss=0.4)
    return loop, proxy, uas, client, location


class TestRegistrationLifecycle:
    def test_initial_register_binds(self):
        loop, proxy, uas, client, location = make_env()
        client.start()
        loop.run_until(0.1)
        binding = location.lookup(AOR, now=loop.now)
        assert binding is not None
        # Contact header wins over the packet source for the binding.
        assert binding.node == "uas1-reg"
        assert client.registers_confirmed == 1

    def test_refresh_keeps_binding_alive(self):
        loop, proxy, uas, client, location = make_env(
            refresh_interval=1.0, expires=1.5
        )
        client.start()
        loop.run_until(10.0)
        assert location.lookup(AOR, now=loop.now) is not None
        assert client.registers_confirmed >= 8

    def test_stopping_lets_binding_expire(self):
        loop, proxy, uas, client, location = make_env(
            refresh_interval=1.0, expires=1.5
        )
        client.start()
        loop.run_until(2.0)
        client.stop()
        loop.run_until(10.0)
        assert location.lookup(AOR, now=loop.now) is None

    def test_lossy_registrar_path_retries(self):
        loop, proxy, uas, client, location = make_env(lossy=True)
        client.start()
        loop.run_until(5.0)
        # Non-INVITE Timer E retransmissions push the REGISTER through.
        assert client.registers_confirmed >= 1

    def test_validation(self):
        loop = EventLoop()
        network = Network(loop)
        with pytest.raises(ValueError):
            RegistrarClient("r", loop, network, "P1", aors=[])
        with pytest.raises(ValueError):
            RegistrarClient("r", loop, network, "P1", aors=["sip:a@b"],
                            refresh_interval=0)

    def test_crashed_client_sends_nothing(self):
        # The registrar never answers; the client crashes while its
        # first REGISTER is retransmitting.
        loop = EventLoop()
        network = Network(loop, RngStream(7, "regtest").spawn("net"))
        network.register("P1", type("Silent", (), {
            "receive": lambda self, packet: None})())
        client = RegistrarClient(
            "uas1-reg", loop, network, registrar="P1", aors=[AOR],
            refresh_interval=1.0, expires=2.0, timers=TIMERS,
            rng=RngStream(7, "regtest"))
        client.start()
        loop.schedule(0.01, client.crash)
        loop.run_until(5.0)
        assert client.metrics.counter("sends_while_dead").value == 0
        assert client.metrics.counter("registers_timed_out").value == 0
        assert client.metrics.counter("registers_sent").value == 1
        # The refresh schedule survives the crash.
        client.restart()
        loop.run_until(6.0)
        assert client.metrics.counter("registers_sent").value == 2

    def test_start_idempotent(self):
        loop, proxy, uas, client, location = make_env()
        client.start()
        client.start()
        loop.run_until(0.2)
        assert client.metrics.counter("registers_sent").value == 1


class TestCallsAgainstChurn:
    def test_calls_fail_404_after_expiry(self):
        loop, proxy, uas, client, location = make_env(
            refresh_interval=1.0, expires=1.5
        )
        client.start()
        loop.run_until(2.0)
        client.stop()
        loop.run_until(6.0)  # binding gone
        rng = RngStream(9, "caller")
        caller = CallGenerator(
            "uac1", loop, proxy.network,
            CallGeneratorConfig(rate=50, first_hop="P1", destinations=[AOR]),
            timers=TIMERS, rng=rng,
        )
        caller.start()
        loop.run_until(7.0)
        caller.stop()
        loop.run_until(8.0)
        assert caller.calls_failed > 0
        assert caller.metrics.counter("failure_invite_404").value > 0

    def test_calls_succeed_while_registered(self):
        loop, proxy, uas, client, location = make_env(
            refresh_interval=1.0, expires=3.0
        )
        client.start()
        loop.run_until(0.5)
        # Re-point the binding at the actual answering server so calls
        # complete end-to-end.
        location.register(AOR, "uas1")
        rng = RngStream(9, "caller")
        caller = CallGenerator(
            "uac1", loop, proxy.network,
            CallGeneratorConfig(rate=50, first_hop="P1", destinations=[AOR]),
            timers=TIMERS, rng=rng,
        )
        caller.start()
        loop.run_until(2.0)
        caller.stop()
        loop.run_until(3.0)
        assert caller.calls_completed == caller.calls_attempted


def _unregister_run(engine):
    """SNIPPETS.md snippet 3's load-test shape on one rung: register a
    population, place calls, un-register every AOR with ``Expires: 0``,
    then call again."""
    config = ScenarioConfig(engine=engine, scale=50.0, seed=5, timers=TIMERS)
    scenario = Scenario("unregister", config)
    aors = [f"sip:sub{i}@edge.example.net" for i in range(20)]
    scenario.add_proxy(
        "P1", RouteTable().add("edge.example.net", DELIVER_ACTION), "stateful")
    uas = scenario.add_uas("uas1", [])
    client = scenario.add_registrar(
        "reg1", "P1", aors, refresh_interval=100.0, expires=150.0,
        contact_node="uas1")
    caller = scenario.add_uac("uac1", 2_000.0, "P1", aors)
    loop, location = scenario.loop, scenario.location
    account = scenario.proxies["P1"].state_account

    def registry():
        return [(aor, b.node, b.expires_at)
                for aor in aors for b in location.bindings_for(aor)]

    client.start()
    loop.run_until(0.5)
    caller.start()
    loop.run_until(1.5)
    caller.stop()
    loop.run_until(2.0)
    registered = registry()
    live_before = account.live["registration"]
    answered = uas.calls_received

    client.stop()
    client.expires = 0.0
    for aor in aors:
        client._register(aor)
    loop.run_until(2.5)
    unregistered = (location.size, account.live["registration"])

    misses = location.misses
    caller.start()
    loop.run_until(3.0)
    caller.stop()
    loop.run_until(3.5)
    return {
        "registered": registered, "live_before": live_before,
        "answered": answered, "unregistered": unregistered,
        "confirmed": client.registers_confirmed,
        "new_misses": location.misses - misses,
        "answered_after": uas.calls_received - answered,
        "404s": caller.metrics.counter("failure_invite_404").value,
    }


class TestUnregister:
    def test_expires_zero_removes_bindings_on_both_rungs(self):
        runs = {engine: _unregister_run(engine)
                for engine in ("reference", "turbo")}
        assert runs["reference"] == runs["turbo"]
        run = runs["turbo"]
        assert len(run["registered"]) == 20 and run["live_before"] == 20
        assert run["answered"] > 0
        assert run["confirmed"] >= 40
        assert run["unregistered"] == (0, 0)
        # A later INVITE to an un-registered AOR misses the lookup.
        assert run["new_misses"] > 0 and run["404s"] > 0
        assert run["answered_after"] == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0])
    def test_unusable_expires_is_ignored(self, value):
        loop, proxy, uas, client, location = make_env()
        client.expires = value
        client.start()
        loop.run_until(0.1)
        assert client.registers_confirmed == 1
        # Like an unparsable value: a binding with no expiry.
        assert [b.expires_at for b in location.bindings_for(AOR)] == [None]
        assert proxy.state_account.live["registration"] == 1
