"""Tests for message-flow tracing and ladder rendering."""

import pytest

from repro import api
from repro.harness.runner import run_scenario
from repro.sim.trace import MessageTrace, TraceEntry, render_ladder
from repro.sip.message import SipRequest, SipResponse
from repro.sip.headers import Via
from repro.workloads.scenarios import ScenarioConfig, two_series


class Sink:
    def __init__(self, name, network):
        network.register(name, self)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_invite(call_id="c1", branch="z9hG4bK1"):
    invite = SipRequest.build(
        "INVITE", "sip:u@x.com", "sip:a@y.com", "sip:u@x.com", call_id, 1, "ft"
    )
    invite.push_via(Via("a", branch=branch))
    return invite


class TestRecording:
    def test_records_sends(self, loop, network):
        Sink("b", network)
        trace = MessageTrace(network)
        network.send("a", "b", make_invite())
        assert len(trace) == 1
        entry = trace.entries[0]
        assert entry.src == "a" and entry.dst == "b"
        assert entry.label == "INVITE"
        assert not entry.dropped

    def test_records_drops(self, loop, network):
        Sink("b", network)
        network.set_link("a", "b", loss=0.999999999)
        trace = MessageTrace(network)
        network.send("a", "b", make_invite())
        assert trace.entries[0].dropped
        assert len(trace.drops()) == 1

    def test_detach_stops_recording(self, loop, network):
        Sink("b", network)
        trace = MessageTrace(network)
        network.send("a", "b", make_invite())
        trace.detach()
        network.send("a", "b", make_invite())
        assert len(trace) == 1

    def test_delivery_still_happens(self, loop, network):
        sink = Sink("b", network)
        MessageTrace(network)
        network.send("a", "b", make_invite())
        loop.run()
        assert len(sink.received) == 1

    def test_eviction_bounds_memory(self, loop, network):
        Sink("b", network)
        trace = MessageTrace(network, max_entries=5)
        for index in range(8):
            network.send("a", "b", make_invite(call_id=f"c{index}"))
        assert len(trace) == 5
        assert trace.evicted == 3
        assert trace.entries[0].call_id == "c3"

    def test_bad_max_entries(self, network):
        with pytest.raises(ValueError):
            MessageTrace(network, max_entries=0)


class TestQueries:
    def fill(self, loop, network):
        Sink("a", network)
        Sink("b", network)
        trace = MessageTrace(network)
        network.send("a", "b", make_invite("c1", branch="z9hG4bKx"))
        network.send("a", "b", make_invite("c2"))
        network.send("a", "b", make_invite("c1", branch="z9hG4bKx"))  # retransmit
        response = SipResponse.for_request(make_invite("c1"), 200, to_tag="t")
        network.send("b", "a", response)
        return trace

    def test_call_flow_filters_and_orders(self, loop, network):
        trace = self.fill(loop, network)
        flow = trace.call_flow("c1")
        assert len(flow) == 3
        assert [e.label for e in flow] == ["INVITE", "INVITE", "200 OK"]

    def test_call_ids_first_seen_order(self, loop, network):
        trace = self.fill(loop, network)
        assert trace.call_ids() == ["c1", "c2"]

    def test_link_counts(self, loop, network):
        trace = self.fill(loop, network)
        counts = trace.link_counts()
        assert counts[("a", "b")] == 3
        assert counts[("b", "a")] == 1

    def test_retransmission_spotting(self, loop, network):
        trace = self.fill(loop, network)
        repeats = trace.retransmissions()
        assert len(repeats) == 1
        assert repeats[0].call_id == "c1"


class TestLadder:
    def test_empty(self):
        assert render_ladder([]) == "(no messages)"

    def test_ladder_structure(self, loop, network):
        Sink("a", network)
        Sink("b", network)
        trace = MessageTrace(network)
        network.send("a", "b", make_invite())
        response = SipResponse.for_request(make_invite(), 180)
        network.send("b", "a", response)
        text = render_ladder(trace.entries, nodes=["a", "b"])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert ">" in lines[1] and "INVITE" in lines[1]
        assert "<" in lines[2] and "180 Ringing" in lines[2]

    def test_dropped_marker(self, loop, network):
        Sink("b", network)
        network.set_link("a", "b", loss=0.999999999)
        trace = MessageTrace(network)
        network.send("a", "b", make_invite())
        text = render_ladder(trace.entries)
        assert "X" in text


class TestScenarioIntegration:
    def test_trace_captures_full_call(self, fast_config):
        scenario = two_series(2000, policy="static", config=fast_config)
        trace = scenario.enable_trace()
        assert scenario.enable_trace() is trace  # idempotent
        run_scenario(scenario, duration=1.0, warmup=0.2, drain=1.0)
        call_ids = trace.call_ids()
        assert call_ids
        flow = trace.call_flow(call_ids[0])
        labels = [entry.label for entry in flow]
        # The canonical make-and-break flow appears on the wire.
        for expected in ("INVITE", "100 Trying", "180 Ringing", "200 OK",
                         "ACK", "BYE"):
            assert any(expected in label for label in labels), (
                expected, labels,
            )
        # Ladder renders without error for a real multi-hop call.
        text = render_ladder(flow)
        assert "INVITE" in text

    @pytest.mark.parametrize("engine", ["reference", "turbo"])
    def test_entries_show_what_was_on_the_wire(self, engine):
        # Each proxy decrements Max-Forwards on the request it received;
        # the trace must still show the value each hop actually sent.
        config = ScenarioConfig(seed=1, engine=engine)
        scenario = two_series(2000, policy="static", config=config)
        trace = scenario.enable_trace()
        run_scenario(scenario, duration=1.0, warmup=0.0, drain=1.0)
        flow = trace.call_flow(trace.call_ids()[0])
        hops = {
            (entry.src, entry.dst): entry.payload.get("Max-Forwards")
            for entry in flow if entry.label == "INVITE"
        }
        assert hops == {
            ("uac1", "P1"): "70", ("P1", "P2"): "69", ("P2", "uas1"): "68",
        }

    @pytest.mark.parametrize("engine", ["reference", "turbo"])
    def test_retransmissions_carry_the_first_max_forwards(self, engine):
        # A receiver never edits the object it was handed: the UAC's
        # client transaction and a stateful proxy both resend the object
        # they sent first, so an in-place decrement downstream would
        # send every retransmission one hop lower.
        scenario = api.make_scenario("n_series", n=2, rate=2000.0,
                                     policy="servartuka", engine=engine,
                                     seed=3)
        scenario.install_faults(
            api.FaultSchedule()
            .set_loss(0.0, "uac1", "P1", 0.3)
            .set_loss(0.0, "P1", "P2", 0.3)
        )
        trace = scenario.enable_trace()
        run_scenario(scenario, duration=0.5, warmup=0.0, drain=1.0)
        sent = {}
        for entry in trace.entries:
            if entry.label == "INVITE":
                key = (entry.src, entry.dst, entry.payload.top_via.branch)
                sent.setdefault(key, []).append(
                    entry.payload.get("Max-Forwards"))
        resent = {key: values for key, values in sent.items()
                  if len(values) > 1}
        assert {src for src, _dst, _branch in resent} >= {"uac1", "P1"}
        assert {key: values for key, values in resent.items()
                if len(set(values)) > 1} == {}
