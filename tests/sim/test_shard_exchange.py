"""The cross-shard exchange: envelopes, the link hand-over, dead workers.

An envelope carries a SIP message as fields and the receiver rebuilds it
with the ordinary constructors, so ``decode(encode(m))`` must be ``m``
in everything a proxy can observe and share nothing mutable with it;
the process driver swaps batches peer to peer, so it must agree with
the inline driver (and both with serial turbo) at every shard count,
survive batches far larger than a pipe buffer, and turn a worker that
vanishes into one ``RuntimeError``.

Imports stay light on purpose: the workers of the big-batch test are
spawned, and a spawned process imports this module to find its target.
"""

import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import time

import pytest

from repro.harness.parallel import _job_scenario
from repro.sim import shard
from repro.sim.shard import (
    _decode_payload,
    _encode_payload,
    _link_hand_over,
    _run_program,
    _ShardWorld,
    partition_scenario,
)
from repro.sip.message import SipMessage
from repro.workloads.scenarios import ScenarioConfig, n_series

from tests.engine.test_sharded_differential import (
    GENERATED_CASES,
    _extras_without_sharded,
    _payload,
)


# ---------------------------------------------------------------------------
# (a) envelopes
# ---------------------------------------------------------------------------
def _observable(message):
    return (type(message), message.start_line(), list(message.headers),
            message.body)


def assert_envelope_round_trip(message):
    """``decode(encode(message))`` equals ``message``, shares nothing
    mutable with it, and the envelope is a picklable snapshot."""
    before = _observable(message)
    envelope = _encode_payload(message)
    wired = pickle.loads(pickle.dumps(envelope, pickle.HIGHEST_PROTOCOL))
    assert wired == envelope
    again = _decode_payload(*wired)
    assert _observable(again) == before
    assert again.headers is not message.headers

    again.add("X-Receiver", "1")
    again.body += "receiver"
    assert _observable(message) == before
    message.add("X-Sender", "1", at_top=True)
    message.body += "sender"
    assert _observable(_decode_payload(*envelope)) == before  # a snapshot
    assert [name for name, _ in again.headers].count("X-Sender") == 0


def test_scenario_messages_round_trip_on_turbo():
    """Every message shape every scenario family puts on the network."""
    from tests.engine.test_differential import SCENARIOS, _config
    from tests.sip.test_codec_equivalence import _shape

    for family in sorted(SCENARIOS):
        scenario = SCENARIOS[family](_config("turbo", 1))
        seen = {}
        send = scenario.network.send

        def recording_send(src, dst, payload, seen=seen, send=send):
            if isinstance(payload, SipMessage) and _shape(payload) not in seen:
                # The sender may recycle or mutate the shell: keep a copy.
                seen[_shape(payload)] = payload.copy()
            return send(src, dst, payload)

        scenario.network.send = recording_send
        scenario.start()
        scenario.loop.run_until(1.0)
        assert len(seen) >= 6, family  # at least the six messages of a call
        for message in seen.values():
            # ``message`` is a copy-on-write clone: its header list is
            # shared with the one that went on sending.
            assert message._cow, family
            sibling = message.copy()
            shared = list(sibling.headers)
            assert_envelope_round_trip(message)
            assert list(sibling.headers) == shared, family


def test_generated_messages_round_trip():
    """Whatever the codec battery's strategy yields that parses."""
    from hypothesis import given, settings

    from repro.sip.parser import SipParseError, parse_message
    from tests.sip.test_codec_equivalence import _messages

    parsed = []

    @settings(max_examples=200, deadline=None)
    @given(raw=_messages())
    def check(raw):
        try:
            message = parse_message(raw)
        except SipParseError:
            return
        parsed.append(raw)
        assert_envelope_round_trip(message)

    check()
    assert len(parsed) > 30  # the strategy really produced messages


def test_control_payloads_stay_pickled():
    payload = {"overload": 0.75, "from": "P1"}
    kind, data = _encode_payload(payload)
    assert kind == "pickle" and isinstance(data, bytes)
    again = _decode_payload(kind, data)
    assert again == payload and again is not payload


# ---------------------------------------------------------------------------
# (b) + (d) process == inline == serial turbo, and the shard accounting
# ---------------------------------------------------------------------------
#: chain6_hetero at seed 2 over half the battery's windows (a 4-shard
#: barrier on 2 cores costs a context switch), and its
#: ``extras["sharded"]`` as recorded at the commit before the exchange
#: was rebuilt.
SHORT = dict(warmup=0.5, duration=1.0, drain=0.25)
PINNED_SUMMARIES = {
    2: {"shards": 2, "lookahead": 0.00025, "windows": 7001,
        "cross_messages": 13, "events_per_shard": [45, 41]},
    3: {"shards": 3, "lookahead": 0.00025, "windows": 7001,
        "cross_messages": 19, "events_per_shard": [30, 30, 26]},
    4: {"shards": 4, "lookahead": 0.00025, "windows": 7001,
        "cross_messages": 25, "events_per_shard": [30, 15, 30, 11]},
}


@pytest.mark.parametrize("shards", sorted(PINNED_SUMMARIES))
def test_process_equals_inline_equals_turbo(shards, monkeypatch):
    """Under the default (spawn) start method."""
    case = GENERATED_CASES["chain6_hetero"]
    turbo = _job_scenario(dict(_payload("turbo", case, 2), **SHORT))
    outputs = {}
    for driver in ("inline", "process"):
        monkeypatch.setenv("REPRO_SHARD_DRIVER", driver)
        timing = {}
        outputs[driver] = shard.run_sharded_scenario(
            dict(_payload("sharded", case, 2, shards=shards), **SHORT), timing
        )
        assert timing["driver"] == driver
        assert timing["windows"] == PINNED_SUMMARIES[shards]["windows"]
    assert outputs["process"] == outputs["inline"]
    assert outputs["inline"]["result"] == turbo["result"]
    assert (_extras_without_sharded(outputs["inline"])
            == _extras_without_sharded(turbo))
    assert outputs["inline"]["extras"]["sharded"] == PINNED_SUMMARIES[shards]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# (c) batches far past the pipe buffer, both directions at once
# ---------------------------------------------------------------------------
BIG_BATCH = 2000


def _big_batch(shard_id):
    """2,000 envelopes (over 1 MB pickled) sent by ``shard_id``, their
    arrival times scrambled and partly tied."""
    batch = []
    for serial in range(1, BIG_BATCH + 1):
        arrival = 1.0 + (serial * 7919 % 500) * 1e-3
        headers = (("Call-ID", f"{shard_id}-{serial}"), ("CSeq", "1 INVITE"))
        body = f"v=0\r\no={serial}\r\n" + "a=filler " * 70  # its own str
        batch.append((arrival, 0.5, shard_id, serial, "src", "dst",
                      "response", (200, "OK", headers, body)))
    return batch


def _swap_worker(report, link, shard_id):
    """One side of a two-shard exchange step, driven without a run."""
    scenario = n_series(
        2, 40.0, policy="servartuka",
        config=ScenarioConfig(engine="turbo", scale=100.0, seed=1),
    )
    world = _ShardWorld(scenario, shard_id, partition_scenario(scenario, 2))
    peer = 1 - shard_id
    delivered = []
    world.network._deliver = lambda packet: delivered.append(
        (world.loop.now, packet.sent_at, packet.payload.get("Call-ID"))
    )
    world.outboxes[peer].extend(_big_batch(shard_id))
    windows = _run_program(
        [world], [("advance", 0.0)], math.inf, _link_hand_over({peer: link})
    )
    assert windows == 1 and not world.inbox and not world.outboxes[peer]
    world.loop.run_until(10.0)
    report.send(delivered)


def test_big_batches_cross_both_ways_at_once():
    assert len(pickle.dumps(_big_batch(0), pickle.HIGHEST_PROTOCOL)) > 1 << 20
    ctx = multiprocessing.get_context("spawn")
    ends = ctx.Pipe()
    reports, procs = [], []
    for shard_id in (0, 1):
        parent_end, child_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_swap_worker,
                           args=(child_end, ends[shard_id], shard_id),
                           daemon=True)
        proc.start()
        child_end.close()
        reports.append(parent_end)
        procs.append(proc)
    try:
        for shard_id, report in enumerate(reports):
            assert report.poll(60), f"shard {shard_id} never finished"
            delivered = report.recv()
            sent = sorted(_big_batch(1 - shard_id), key=lambda e: e[:4])
            expected = [
                (env[0], env[1], dict(env[7][2])["Call-ID"]) for env in sent
            ]
            assert delivered == expected
    finally:
        for proc in procs:
            proc.join(timeout=10)
            alive = proc.is_alive()
            if alive:
                proc.terminate()
                proc.join()
            assert not alive and proc.exitcode == 0


# ---------------------------------------------------------------------------
# A worker that vanishes is one RuntimeError, and nobody outlives the call
# ---------------------------------------------------------------------------
def _assert_fails_fast(payload, match):
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match=match) as caught:
        _job_scenario(payload)
    assert time.perf_counter() - started < 10.0
    assert "EOFError" not in str(caught.value)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("shards", [2, 3])
def test_worker_killed_mid_run(shards, monkeypatch):
    """Shard 1 dies at its second snapshot mark; its peers are waiting
    on it or about to."""
    real_do = _ShardWorld.do

    def dying_do(self, tag):
        if self.shard_id == 1 and tag == "snapshot" and self.readings:
            os._exit(3)
        real_do(self, tag)

    monkeypatch.setenv("REPRO_MP_START", "fork")  # children inherit the patch
    monkeypatch.setenv("REPRO_SHARD_DRIVER", "process")
    monkeypatch.setattr(_ShardWorld, "do", dying_do)
    payload = dict(_payload("sharded", GENERATED_CASES["chain6_hetero"], 1,
                            shards=shards), **SHORT)
    _assert_fails_fast(
        payload, r"shard 1 worker failed: exited with code 3 before"
    )


def test_worker_killed_before_its_first_window(monkeypatch):
    """Under spawn: a worker is killed while it still imports; its peer
    meets a closed link at its first window and leaves quietly."""
    known = set(multiprocessing.active_children())
    real_wait = multiprocessing.connection.wait
    killed = []

    def killing_wait(*args, **kwargs):  # the parent's first wait
        if not killed:
            victim = (set(multiprocessing.active_children()) - known).pop()
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim)
        return real_wait(*args, **kwargs)

    monkeypatch.setenv("REPRO_MP_START", "spawn")  # children still import
    monkeypatch.setenv("REPRO_SHARD_DRIVER", "process")
    monkeypatch.setattr(multiprocessing.connection, "wait", killing_wait)
    payload = _payload("sharded", GENERATED_CASES["chain6_hetero"], 1,
                       shards=2)
    _assert_fails_fast(
        payload,
        rf"shard [01] worker failed: exited with code -{signal.SIGKILL:d}",
    )
