"""Behavioural tests for the proxy server.

A stub endpoint node records everything it receives; messages are
injected through the network fabric so the full receive -> CPU ->
execute pipeline runs.  The proxy uses a zero-noise CPU so assertions
are deterministic.
"""

import math

import pytest

import repro.api as api
from repro.core.costmodel import CostModel
from repro.core.overload import OverloadReport
from repro.core.servartuka import ServartukaPolicy
from repro.core.static_policy import stateful_policy, stateless_policy
from repro.harness.runner import run_scenario
from repro.servers.location import LocationService
from repro.servers.proxy import (
    DELIVER_ACTION,
    ProxyConfig,
    ProxyServer,
    RouteTable,
    STATE_HEADER,
    STATE_HELD,
)
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.digest import CredentialStore, make_authorization
from repro.sip.headers import Via
from repro.sip import message as message_module
from repro.sip.message import SipRequest, SipResponse, set_engine_mode


class Stub:
    """Endpoint that records everything delivered to it."""

    def __init__(self, name, network):
        self.name = name
        self.received = []
        network.register(name, self)

    def receive(self, packet):
        self.received.append(packet.payload)

    def of_type(self, cls):
        return [m for m in self.received if isinstance(m, cls)]

    def requests(self, method=None):
        out = [m for m in self.received if isinstance(m, SipRequest)]
        if method:
            out = [m for m in out if m.method == method]
        return out

    def responses(self, status=None):
        out = [m for m in self.received if isinstance(m, SipResponse)]
        if status:
            out = [m for m in out if m.status == status]
        return out


class Env:
    def __init__(self, policy=None, auth=False, routes=None, config=None):
        self.loop = EventLoop()
        self.rng = RngStream(99, "proxy-test")
        self.network = Network(self.loop, self.rng.spawn("net"))
        self.uac = Stub("uac", self.network)
        self.dst = Stub("dst", self.network)
        self.location = LocationService()
        self.location.register("sip:bob@far.example.net", "dst")
        route_table = routes or RouteTable().add("far.example.net", DELIVER_ACTION)
        credentials = None
        if auth:
            credentials = CredentialStore("realm.example")
            credentials.add_user("alice", "pw")
        self.proxy = ProxyServer(
            "P1",
            self.loop,
            self.network,
            route_table=route_table,
            location=self.location,
            policy=policy or stateful_policy(),
            config=config or ProxyConfig(auth_enabled=auth, realm="realm.example"),
            credentials=credentials,
            cost_model=CostModel(scale=1.0),
            rng=self.rng,
            noise_sigma=0.0,
        )
        self._counter = 0

    def make_invite(self, call_id=None, branch=None, **extra_headers):
        self._counter += 1
        invite = SipRequest.build(
            "INVITE",
            uri="sip:bob@far.example.net",
            from_addr="sip:alice@near.example.net",
            to_addr="sip:bob@far.example.net",
            call_id=call_id or f"c{self._counter}",
            cseq=1,
            from_tag=f"ft{self._counter}",
        )
        for name, value in extra_headers.items():
            invite.set(name.replace("_", "-"), value)
        invite.push_via(Via("uac", branch=branch or f"z9hG4bKt{self._counter}"))
        return invite

    def inject(self, src, payload, run_to=None):
        self.network.send(src, "P1", payload)
        self.loop.run_until(self.loop.now + (run_to or 0.2))


class TestStatefulForwarding:
    def test_forwards_with_own_via(self):
        env = Env()
        env.inject("uac", env.make_invite())
        forwarded = env.dst.requests("INVITE")
        assert len(forwarded) == 1
        assert forwarded[0].top_via.host == "P1"
        assert len(forwarded[0].vias) == 2

    def test_sends_100_trying_upstream(self):
        env = Env()
        env.inject("uac", env.make_invite())
        assert len(env.uac.responses(100)) == 1

    def test_marks_state_held(self):
        env = Env()
        env.inject("uac", env.make_invite())
        assert env.dst.requests()[0].get(STATE_HEADER) == STATE_HELD

    def test_record_routes_itself(self):
        env = Env()
        env.inject("uac", env.make_invite())
        record_routes = env.dst.requests()[0].get_all("Record-Route")
        assert any("P1" in rr for rr in record_routes)

    def test_decrements_max_forwards(self):
        env = Env()
        env.inject("uac", env.make_invite())
        assert env.dst.requests()[0].get("Max-Forwards") == "69"

    @pytest.mark.parametrize("engine", ["reference", "turbo"])
    @pytest.mark.parametrize("policy", [stateful_policy, stateless_policy])
    def test_leaves_the_received_request_untouched(self, engine, policy):
        # The sender keeps the object it sent for retransmission.
        set_engine_mode(engine)
        env = Env(policy=policy())
        invite = env.make_invite()
        sent = list(invite.headers)
        env.inject("uac", invite)
        assert env.dst.requests()[0].get("Max-Forwards") == "69"
        assert invite.headers == sent

    def test_absorbs_invite_retransmission(self):
        env = Env()
        invite = env.make_invite(branch="z9hG4bKsame")
        env.inject("uac", invite)
        env.inject("uac", invite.copy())
        assert len(env.dst.requests("INVITE")) == 1
        # The retransmit is answered from stored state (another 100).
        assert len(env.uac.responses(100)) == 2
        assert env.proxy.metrics.counter("retransmits_absorbed").value == 1

    def test_transaction_created(self):
        env = Env()
        env.inject("uac", env.make_invite())
        assert env.proxy.active_transactions == 1


class TestStatelessForwarding:
    def test_no_trying_no_state(self):
        env = Env(policy=stateless_policy())
        env.inject("uac", env.make_invite())
        assert env.uac.responses(100) == []
        assert env.proxy.active_transactions == 0
        assert env.dst.requests()[0].get(STATE_HEADER) is None

    def test_retransmissions_pass_through(self):
        env = Env(policy=stateless_policy())
        invite = env.make_invite(branch="z9hG4bKsame")
        env.inject("uac", invite)
        env.inject("uac", invite.copy())
        forwarded = env.dst.requests("INVITE")
        assert len(forwarded) == 2
        # Deterministic stateless branch: both copies share one branch
        # so downstream can match them to one transaction (RFC 16.11).
        assert forwarded[0].top_via.branch == forwarded[1].top_via.branch

    def test_no_record_route(self):
        env = Env(policy=stateless_policy())
        env.inject("uac", env.make_invite())
        assert env.dst.requests()[0].get_all("Record-Route") == []


class TestResponseForwarding:
    def respond_from_dst(self, env, status=200, to_tag="tt"):
        forwarded = env.dst.requests("INVITE")[-1]
        response = SipResponse.for_request(forwarded, status, to_tag=to_tag)
        env.inject("dst", response)
        return response

    def test_pops_own_via_and_routes_upstream(self):
        env = Env()
        env.inject("uac", env.make_invite())
        self.respond_from_dst(env)
        upstream = env.uac.responses(200)
        assert len(upstream) == 1
        assert upstream[0].top_via.host == "uac"
        assert len(upstream[0].get_all("Via")) == 1

    def test_stray_response_dropped(self):
        env = Env()
        response = SipResponse(200)
        response.add("Via", "SIP/2.0/UDP someoneelse;branch=z9hG4bKx")
        env.inject("dst", response)
        assert env.uac.responses() == []
        assert env.proxy.metrics.counter("stray_responses").value == 1

    def test_stateful_absorbs_downstream_100(self):
        env = Env()
        env.inject("uac", env.make_invite())
        self.respond_from_dst(env, status=100)
        # Our own 100 was already sent; the downstream one is consumed.
        assert len(env.uac.responses(100)) == 1
        assert env.proxy.metrics.counter("trying_absorbed").value == 1

    def test_stateless_relays_downstream_100(self):
        env = Env(policy=stateless_policy())
        env.inject("uac", env.make_invite())
        self.respond_from_dst(env, status=100)
        assert len(env.uac.responses(100)) == 1
        assert env.proxy.metrics.counter("trying_relayed").value == 1

    def test_final_response_stored_for_absorption(self):
        env = Env()
        invite = env.make_invite(branch="z9hG4bKr")
        env.inject("uac", invite)
        self.respond_from_dst(env, status=200)
        env.inject("uac", invite.copy())
        # Retransmit is answered with the stored 200, not forwarded.
        assert len(env.dst.requests("INVITE")) == 1
        assert len(env.uac.responses(200)) == 2

    def test_reference_chain_copies_once_per_forwarded_message(
            self, monkeypatch):
        """On the wire-faithful rung every forwarded request and response
        is serialized and re-parsed exactly once: the stored upstream
        response is sent as is, and only a retransmission copies it."""
        copies = []
        wire_copy = message_module._wire_copy

        def counting(msg):
            copies.append(msg)
            return wire_copy(msg)

        monkeypatch.setattr(message_module, "_wire_copy", counting)
        scenario = api.make_scenario("n_series", n=2, rate=2000.0, seed=3,
                                     engine="reference")
        result = run_scenario(scenario, duration=0.5, warmup=0.2)
        assert result.retransmissions == 0
        forwarded = sum(
            proxy.metrics.counter(name).value
            for proxy in scenario.proxies.values()
            for name in ("requests_forwarded", "responses_forwarded"))
        assert forwarded > 0
        assert len(copies) == forwarded


class TestProxyConfig:
    @pytest.mark.parametrize("knob, value", [
        ("reject_queue_delay", math.nan), ("reject_queue_delay", -0.1),
        ("txn_linger", math.nan), ("txn_linger", -1.0),
        ("monitor_period", math.nan), ("monitor_period", math.inf),
        ("monitor_period", 0.0),
    ])
    def test_bad_time_knob_rejected(self, knob, value):
        """A NaN compares false both ways: a NaN ``reject_queue_delay``
        silently turns 500-shedding off, and a NaN or infinite period
        never lets the monitor run."""
        with pytest.raises(ValueError, match=f"^{knob} must be"):
            ProxyConfig(**{knob: value})


class TestRejections:
    def test_unknown_domain_404(self):
        env = Env()
        invite = env.make_invite()
        invite.uri = __import__("repro.sip.uri", fromlist=["parse_uri"]).parse_uri(
            "sip:bob@unknown.example.org"
        )
        env.inject("uac", invite)
        assert len(env.uac.responses(404)) == 1

    def test_unregistered_user_404(self):
        env = Env()
        env.location.unregister("sip:bob@far.example.net")
        env.inject("uac", env.make_invite())
        assert len(env.uac.responses(404)) == 1

    def test_max_forwards_exhausted_483(self):
        env = Env()
        env.inject("uac", env.make_invite(Max_Forwards="0"))
        assert len(env.uac.responses(483)) == 1
        assert env.dst.requests() == []

    def test_busy_500_when_backlogged(self):
        env = Env(config=ProxyConfig(reject_queue_delay=0.001))
        env.proxy.cpu.submit(0.5, lambda: None)  # deep backlog
        env.inject("uac", env.make_invite(), run_to=1.0)
        assert len(env.uac.responses(500)) == 1
        assert env.dst.requests() == []
        assert env.proxy.metrics.counter("server_busy_sent").value == 1

    def test_reject_absorbs_retransmits(self):
        env = Env()
        env.location.unregister("sip:bob@far.example.net")
        invite = env.make_invite(branch="z9hG4bKrej")
        env.inject("uac", invite)
        env.inject("uac", invite.copy())
        # Second copy absorbed by the reject transaction: one 404 reply
        # per delivery but never forwarded downstream.
        assert len(env.uac.responses(404)) == 2
        assert env.dst.requests() == []


class TestAuth:
    def test_unauthenticated_invite_407(self):
        env = Env(auth=True)
        env.inject("uac", env.make_invite())
        challenges = env.uac.responses(407)
        assert len(challenges) == 1
        assert "realm.example" in (challenges[0].get("Proxy-Authenticate") or "")
        assert env.dst.requests() == []

    def test_authenticated_invite_forwarded(self):
        env = Env(auth=True)
        invite = env.make_invite()
        invite.set(
            "Proxy-Authorization",
            make_authorization("alice", "realm.example", "pw", "INVITE",
                               "sip:bob@far.example.net",
                               env.proxy.config.nonce),
        )
        env.inject("uac", invite)
        assert len(env.dst.requests("INVITE")) == 1

    def test_wrong_password_407(self):
        env = Env(auth=True)
        invite = env.make_invite()
        invite.set(
            "Proxy-Authorization",
            make_authorization("alice", "realm.example", "WRONG", "INVITE",
                               "sip:bob@far.example.net",
                               env.proxy.config.nonce),
        )
        env.inject("uac", invite)
        assert len(env.uac.responses(407)) == 1


class TestRegister:
    def test_register_updates_location(self):
        env = Env()
        register = SipRequest.build(
            "REGISTER",
            uri="sip:far.example.net",
            from_addr="sip:carol@far.example.net",
            to_addr="sip:carol@far.example.net",
            call_id="r1",
            cseq=1,
            from_tag="rt",
        )
        register.set("Contact", "<sip:dst>")
        register.push_via(Via("uac", branch="z9hG4bKreg"))
        env.inject("uac", register)
        assert len(env.uac.responses(200)) == 1
        assert env.location.lookup("sip:carol@far.example.net").node == "dst"


class TestByeOwnership:
    def make_bye(self, env, with_route):
        bye = SipRequest.build(
            "BYE",
            uri="sip:bob@far.example.net",
            from_addr="sip:alice@near.example.net",
            to_addr="sip:bob@far.example.net",
            call_id="c-bye",
            cseq=2,
            from_tag="ft",
            to_tag="tt",
        )
        if with_route:
            bye.add("Route", "<sip:P1;lr>")
        bye.push_via(Via("uac", branch="z9hG4bKbye"))
        return bye

    def test_owner_handles_bye_statefully(self):
        env = Env(policy=stateless_policy())
        env.inject("uac", self.make_bye(env, with_route=True))
        assert env.proxy.metrics.counter("byes_stateful").value == 1
        # Route entry consumed before forwarding.
        assert env.dst.requests("BYE")[0].get_all("Route") == []

    def test_non_owner_forwards_bye_statelessly(self):
        env = Env(policy=stateless_policy())
        env.inject("uac", self.make_bye(env, with_route=False))
        assert env.proxy.metrics.counter("byes_stateless").value == 1


class TestCpuCharging:
    """The proxy charges each message it receives to its CPU model."""

    def test_control_messages_are_cheap(self):
        control, invite = Env(policy=ServartukaPolicy()), Env()
        control.inject("dst", OverloadReport("dst", True, 100.0, 1))
        invite.inject("uac", invite.make_invite())
        assert (control.proxy.cpu.busy_seconds
                < invite.proxy.cpu.busy_seconds / 3)

    def test_deeper_via_stack_costs_more(self):
        shallow, deep = Env(), Env()
        shallow.inject("uac", shallow.make_invite())
        request = deep.make_invite()
        for index in range(3):
            request.push_via(Via(f"h{index}", branch=f"z9hG4bKv{index}"))
        deep.inject("uac", request)
        assert deep.proxy.cpu.busy_seconds > shallow.proxy.cpu.busy_seconds

    def test_admission_drop_is_counted(self):
        env = Env()
        env.proxy.cpu.max_queue_delay = 1e-9
        # The first INVITE occupies the CPU; the rest exceed the bound.
        for _ in range(3):
            env.network.send("uac", "P1", env.make_invite())
        env.loop.run_until(0.2)
        dropped = env.proxy.metrics.counter("messages_dropped_overload")
        assert dropped.value == 2
        assert len(env.dst.requests("INVITE")) == 1


class TestControlPlane:
    def test_overload_report_reaches_policy(self):
        policy = ServartukaPolicy()
        env = Env(policy=policy)
        env.inject("dst", OverloadReport("dst", True, 100.0, 1))
        assert policy.path("dst").overload.overloaded

    def test_broadcast_splits_by_upstream_share(self):
        env = Env()
        second = Stub("uac2", env.network)
        for _ in range(3):
            env.inject("uac", env.make_invite())
        env.inject("uac2", env.make_invite())
        env.proxy.broadcast_overload(True, 100.0, sequence=1)
        env.loop.run_until(env.loop.now + 0.1)
        reports_uac = [m for m in env.uac.received if isinstance(m, OverloadReport)]
        reports_uac2 = [m for m in second.received if isinstance(m, OverloadReport)]
        assert len(reports_uac) == 1 and len(reports_uac2) == 1
        assert reports_uac[0].c_asf_rate == pytest.approx(75.0)
        assert reports_uac2[0].c_asf_rate == pytest.approx(25.0)

    def test_state_thresholds_reflect_lookup(self):
        env = Env()
        t_sf, t_sl = env.proxy.state_thresholds()
        assert t_sf == pytest.approx(10360, rel=0.01)
        assert t_sl == pytest.approx(12300, rel=0.01)
