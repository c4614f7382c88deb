"""Layers measured from outside: the file->layer table, the cProfile
split, and unit-cost drivers on public functions.

The traced pass runs a workload once more under ``cProfile`` and
buckets ``tottime`` (self time) and ``ncalls`` by source file.
``cProfile`` charges every Python call and nothing inside C code, so it
inflates call-heavy layers: shares attribute time, they are not
absolute costs.  The unit costs are plain timed loops (median of
``rounds`` rounds, the round size is each driver's ``ops``) that report
and never assert; they port ``benchmarks/bench_microbench.py``, whose
pytest-benchmark rounds were never checked in.
"""

from __future__ import annotations

import json
import os
import pstats
import statistics
import tempfile
from time import perf_counter
from typing import Callable, Dict, Tuple

from metrics import LAYERS

SRC_ROOT = os.path.realpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "src", "repro"))

#: Source file (relative to ``src/repro``, no suffix) -> layer.  Whole
#: packages that belong to one layer are listed in ``_PACKAGE_LAYERS``;
#: package ``__init__``/``__main__`` files are glue and count as
#: harness.  A source file that matches none of these fails the
#: self-test until it is given a layer here.
_FILE_LAYERS = {
    "sip/message": "sip.message", "sip/headers": "sip.message",
    "sip/uri": "sip.message", "sip/sdp": "sip.message",
    "sip/parser": "sip.parser",
    "sip/transaction": "sip.transaction", "sip/timers": "sip.transaction",
    "sip/dialog": "sip.transaction", "sip/digest": "sip.transaction",
    "sim/events": "sim.loop", "sim/timers_wheel": "sim.loop",
    "sim/cpu": "sim.cpu",
    "sim/network": "sim.network", "sim/trace": "sim.network",
    "sim/metrics": "sim.metrics", "sim/rng": "sim.rng",
    "sim/faults": "sim.faults", "sim/hybrid": "sim.hybrid",
    "sim/shard": "sim.shard",
    "servers/proxy": "servers.proxy", "servers/node": "servers.proxy",
    "servers/location": "servers.proxy", "servers/b2bua": "servers.proxy",
    "servers/uac": "servers.endpoints", "servers/uas": "servers.endpoints",
    "servers/registrar_client": "servers.endpoints",
    "workloads/callgen": "servers.endpoints",
    "core/servartuka": "core.policy", "core/static_policy": "core.policy",
    "core/overload": "core.policy", "core/stateacct": "core.policy",
    "core/control": "core.policy", "core/costmodel": "core.policy",
    "core/lp": "core.lp", "core/simplex": "core.lp",
    "core/topogen": "core.lp", "core/topology": "core.lp",
    "core/fluid": "core.lp", "core/analysis": "core.lp",
    "workloads/scenarios": "harness", "workloads/spec": "harness",
    "api": "harness", "cli": "harness",
}
_PACKAGE_LAYERS = {"harness": "harness", "obs": "harness"}


def layer_of(path: str) -> str:
    """Layer of one profiled file; raises ``KeyError`` for a file under
    ``src/repro`` that the table does not know."""
    real = os.path.realpath(path)
    if not real.startswith(SRC_ROOT + os.sep):
        return "stdlib"
    relative = os.path.relpath(real, SRC_ROOT).replace(os.sep, "/")
    stem = relative[:-3] if relative.endswith(".py") else relative
    if stem.rsplit("/", 1)[-1] in ("__init__", "__main__"):
        return "harness"
    package = stem.split("/", 1)[0]
    if package in _PACKAGE_LAYERS:
        return _PACKAGE_LAYERS[package]
    return _FILE_LAYERS[stem]


def profile_split(profiler, calls: int) -> Dict[str, float]:
    """``<layer>.self_share`` and ``<layer>.calls_per_call`` of a
    finished ``cProfile.Profile``; ``calls`` is simulated calls."""
    self_time = dict.fromkeys(LAYERS, 0.0)
    ncalls = dict.fromkeys(LAYERS, 0)
    cache: Dict[str, str] = {}
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in (
            pstats.Stats(profiler).stats.items()):
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = layer_of(filename)
        self_time[layer] += tt
        ncalls[layer] += nc
    total = sum(self_time.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / total
        out[f"{layer}.calls_per_call"] = ncalls[layer] / calls
    return out


def normalize_us(payload: dict, rounds: int) -> float:
    """``harness.payload_us``: the JSON round-trip every run's result
    takes through the executor before it is merged or cached."""
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        json.loads(json.dumps(payload))
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e6


# ---------------------------------------------------------------------------
# Unit-cost drivers
# ---------------------------------------------------------------------------
# Each driver builds its fixtures and returns (round, ops): ``round()``
# does any untimed preparation, times ``ops`` operations and returns the
# elapsed seconds.  The engine mode a driver runs under is part of its
# definition, because message copies, parse interning and pooling are
# process-global switches in ``sip/message.py``.

RAW_INVITE = (
    "INVITE sip:burdell@cc.gatech.edu SIP/2.0\r\n"
    "Via: SIP/2.0/UDP p2.example.com;branch=z9hG4bK3\r\n"
    "Via: SIP/2.0/UDP p1.example.com;branch=z9hG4bK2\r\n"
    "Via: SIP/2.0/UDP uac.example.com;branch=z9hG4bK1\r\n"
    "Record-Route: <sip:p2.example.com;lr>\r\n"
    "Record-Route: <sip:p1.example.com;lr>\r\n"
    "From: \"Hal\" <sip:hal@us.ibm.com>;tag=a1\r\n"
    "To: <sip:burdell@cc.gatech.edu>\r\n"
    "Call-ID: abc123@uac.example.com\r\n"
    "CSeq: 1 INVITE\r\n"
    "Contact: <sip:hal@uac.example.com>\r\n"
    "Max-Forwards: 68\r\n"
    "Content-Length: 0\r\n\r\n"
)

Round = Tuple[Callable[[], float], int]


def _loop_of(fn: Callable[[], object], ops: int) -> Round:
    """Time ``ops`` back-to-back calls of ``fn``."""
    def round_() -> float:
        start = perf_counter()
        for _ in range(ops):
            fn()
        return perf_counter() - start
    return round_, ops


def _parse_invite(_scratch) -> Round:
    from repro.sip.parser import parse_message
    return _loop_of(lambda: parse_message(RAW_INVITE), 50)


def _to_wire(_scratch) -> Round:
    from repro.sip.parser import parse_message
    return _loop_of(parse_message(RAW_INVITE).to_wire, 200)


def _copy(_scratch) -> Round:
    from repro.sip.parser import parse_message
    return _loop_of(parse_message(RAW_INVITE).copy, 500)


def _transaction_key(_scratch) -> Round:
    from repro.sip.parser import parse_message
    ops = 50

    def round_() -> float:
        # Fresh messages, so every call does the lazy top-Via parse.
        messages = [parse_message(RAW_INVITE) for _ in range(ops)]
        start = perf_counter()
        for message in messages:
            message.transaction_key()
        return perf_counter() - start
    return round_, ops


def _client_lifecycle(_scratch) -> Round:
    from repro.sim.events import EventLoop
    from repro.sip.headers import Via
    from repro.sip.message import SipRequest, SipResponse
    from repro.sip.timers import TimerPolicy
    from repro.sip.transaction import ClientTransaction

    timers = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)

    def lifecycle() -> None:
        loop = EventLoop()
        request = SipRequest.build(
            "INVITE", "sip:u@x.com", "sip:a@y.com", "sip:u@x.com", "c", 1,
            "ft")
        request.push_via(Via("uac", branch="z9hG4bKb"))
        txn = ClientTransaction(
            request, loop, send_fn=lambda m: None,
            on_response=lambda r: None, on_timeout=lambda: None,
            timers=timers)
        txn.start()
        txn.receive_response(SipResponse.for_request(request, 180, to_tag="t"))
        txn.receive_response(SipResponse.for_request(request, 200, to_tag="t"))
        loop.run()
    return _loop_of(lifecycle, 10)


def _noop() -> None:
    pass


def _heap_event(_scratch) -> Round:
    from repro.sim.events import EventLoop
    ops = 2000

    def round_() -> float:
        loop = EventLoop()
        start = perf_counter()
        for index in range(ops):
            loop.schedule(index * 1e-6, _noop)
        loop.run()
        return perf_counter() - start
    return round_, ops


def _wheel_loop():
    from repro.sim.timers_wheel import WheelEventLoop
    return WheelEventLoop(bucket_width=0.5)  # T1, as the scenarios size it


def _wheel_event(_scratch) -> Round:
    ops = 2000

    def round_() -> float:
        loop = _wheel_loop()
        start = perf_counter()
        for index in range(ops):
            loop.schedule(0.5 + index * 0.016, _noop)  # T1 .. 64*T1
        loop.run()
        return perf_counter() - start
    return round_, ops


def _wheel_cancel(_scratch) -> Round:
    ops = 2000

    def round_() -> float:
        loop = _wheel_loop()
        handles = [loop.schedule(0.5 + index * 0.016, _noop)
                   for index in range(ops)]
        start = perf_counter()
        for handle in handles:
            handle.cancel()
        loop.run()  # the corpses still have to be drained or compacted
        return perf_counter() - start
    return round_, ops


def _cpu_submit(_scratch) -> Round:
    from repro.sim.cpu import CpuModel
    from repro.sim.events import EventLoop
    from repro.sim.rng import RngStream
    ops = 2000

    def round_() -> float:
        loop = EventLoop()
        cpu = CpuModel(loop, RngStream(1, "bench"), noise_sigma=0.3)
        start = perf_counter()
        for _ in range(ops):
            cpu.submit(1e-5, _noop)
        loop.run()
        return perf_counter() - start
    return round_, ops


class _Sink:
    def receive(self, packet) -> None:
        pass


def _network_send(_scratch) -> Round:
    from repro.sim.events import EventLoop
    from repro.sim.network import Network
    ops = 2000

    def round_() -> float:
        loop = EventLoop()
        network = Network(loop)
        network.register("a", _Sink())
        network.register("b", _Sink())
        start = perf_counter()
        for _ in range(ops):
            network.send("a", "b", None)
        loop.run()
        return perf_counter() - start
    return round_, ops


def _metrics_observe(_scratch) -> Round:
    from repro.sim.metrics import MetricsRegistry, set_lean_metrics
    ops = 5000

    def round_() -> float:
        set_lean_metrics(True)  # what the turbo rung records into
        histogram = MetricsRegistry("bench").histogram("rt")
        start = perf_counter()
        for index in range(ops):
            histogram.observe(index * 1e-6)
        return perf_counter() - start
    return round_, ops


def _message_cost(_scratch) -> Round:
    from repro.core.costmodel import CostModel, MessageKind, scenario_features
    model = CostModel()
    features = scenario_features("transaction_stateful")
    return _loop_of(
        lambda: model.message_cost(MessageKind.INVITE, features, 1), 500)


def _lp_two_series(_scratch) -> Round:
    from repro.core.lp import StateDistributionLP
    from repro.core.topology import two_series_topology
    topology = two_series_topology(10360, 12300)
    return _loop_of(
        lambda: StateDistributionLP(topology, backend="simplex").solve(), 1)


def _mesh51():
    from repro.core.topogen import generate
    return generate("mesh", 51, seed=1, heterogeneity=0.3)


def _mesh51_oracle(_scratch) -> Round:
    return _loop_of(_mesh51().oracle, 1)


def _topogen_mesh51(_scratch) -> Round:
    return _loop_of(_mesh51, 1)


def _spec_and_result():
    from repro.harness.parallel import SpecTemplate
    from repro.harness.runner import RunResult
    from repro.workloads.scenarios import ScenarioConfig
    template = SpecTemplate("n_series", ScenarioConfig(engine="turbo"),
                            n=2, policy="servartuka")
    result = RunResult("two_series", 10000.0, 6.0)
    for proxy in ("P1", "P2"):
        result.proxy_utilization[proxy] = 0.9
        result.proxy_stateful_cps[proxy] = 5000.0
        result.proxy_stateless_cps[proxy] = 5000.0
    return template.at(10000.0, 6.0, 2.0), {"result": result.to_payload(),
                                            "extras": {"events": 272609}}


def _spec_key(_scratch) -> Round:
    from repro.harness.parallel import spec_key
    spec, _ = _spec_and_result()
    return _loop_of(lambda: spec_key(spec.kind, spec.payload), 50)


def _runcache(scratch: str, timed: str) -> Round:
    from repro.harness.runcache import RunCache
    spec, result = _spec_and_result()
    ops = 20
    keys = [f"{index:02x}" + spec.key()[2:] for index in range(ops)]

    def round_() -> float:
        with tempfile.TemporaryDirectory(dir=scratch) as root:
            cache = RunCache(root)
            start = perf_counter()
            for key in keys:
                cache.put(key, spec.kind, spec.payload, result)
            put = perf_counter() - start
            start = perf_counter()
            for key in keys:
                cache.get(key)
            get = perf_counter() - start
        return put if timed == "put" else get
    return round_, ops


def _runcache_put(scratch: str) -> Round:
    return _runcache(scratch, "put")


def _runcache_get(scratch: str) -> Round:
    return _runcache(scratch, "get")


#: metric name -> (engine mode, driver).  Codec drivers run under the
#: wire-faithful rung (no parse interning, as a real stack pays); the
#: rest under turbo (copy-on-write, pooling), the rung users run.
DRIVERS = {
    "sip.parser.parse_invite_us": ("reference", _parse_invite),
    "sip.message.to_wire_us": ("reference", _to_wire),
    "sip.message.copy_us": ("turbo", _copy),
    "sip.message.transaction_key_us": ("reference", _transaction_key),
    "sip.transaction.client_lifecycle_us": ("turbo", _client_lifecycle),
    "sim.loop.heap_event_us": ("turbo", _heap_event),
    "sim.loop.wheel_event_us": ("turbo", _wheel_event),
    "sim.loop.wheel_cancel_us": ("turbo", _wheel_cancel),
    "sim.cpu.submit_us": ("turbo", _cpu_submit),
    "sim.network.send_us": ("turbo", _network_send),
    "sim.metrics.observe_us": ("turbo", _metrics_observe),
    "core.policy.message_cost_us": ("turbo", _message_cost),
    "core.lp.two_series_ms": ("turbo", _lp_two_series),
    "core.lp.mesh51_oracle_ms": ("turbo", _mesh51_oracle),
    "core.lp.topogen_mesh51_ms": ("turbo", _topogen_mesh51),
    "harness.parallel.spec_key_us": ("turbo", _spec_key),
    "harness.runcache.put_us": ("turbo", _runcache_put),
    "harness.runcache.get_us": ("turbo", _runcache_get),
}


def unit_costs(rounds: int, scratch: str) -> Dict[str, float]:
    """Median cost of one operation per driver, in the unit its name
    ends with; ``n = rounds`` rounds of the driver's ``ops``."""
    from repro.sip.message import set_engine_mode

    out: Dict[str, float] = {}
    for name, (mode, build) in DRIVERS.items():
        set_engine_mode(mode)
        round_, ops = build(scratch)
        round_()  # first call pays imports and cold caches
        per_op = statistics.median(round_() for _ in range(rounds)) / ops
        out[name] = per_op * (1e3 if name.endswith("_ms") else 1e6)
    return out
