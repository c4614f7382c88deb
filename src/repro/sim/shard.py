"""Sharded single-scenario execution (conservative time windows).

The sixth engine rung: ``ScenarioConfig(engine="sharded", shards=N)``
partitions one scenario's node space into N shards, each running a full
turbo-rung event loop, synchronized by conservative time windows.

Correctness argument (why results are *bit-identical* to serial turbo):

- **Ownership partitioning.**  Every shard builds the complete scenario
  from the same spec payload, so topology, routing tables, location
  bindings and per-node RNG streams are identical replicas.  Each node
  is *owned* by exactly one shard: only the owner starts its load
  generators/registrars and keeps its proxy monitor timer; non-owned
  replicas stay silent.  Because per-node RNG streams are derived by
  name from the scenario seed (never from draw interleaving across
  nodes), a node's stream is the same no matter which shard owns it.

- **Conservative windows.**  All cross-shard traffic rides network
  links, and every link has strictly positive latency.  With lookahead
  ``L`` = the minimum latency over links whose endpoints live in
  different shards, each shard may run freely to the window boundary
  ``T_j``: an event executed in window ``(T_{j-1}, T_j]`` can only
  schedule a cross-shard delivery at ``t + latency > T_{j-1} + L >=
  T_j``, i.e. strictly inside a *later* window.  Exchanging envelope
  batches at each boundary (Chandy-Misra null messages degenerate to
  the window barrier itself) therefore delivers every message before
  any shard could have executed past its arrival time.  ``shards=1``
  has no cut links, the lookahead is infinite, and the run degenerates
  to plain turbo with one window per measurement phase.

- **Deterministic exchange.**  Envelopes are sorted by ``(arrival,
  sent_at, source shard, per-shard serial)`` before ingestion, so the
  order cross-shard deliveries enter a loop never depends on OS
  scheduling.  SIP payloads cross via ``to_wire()``/``parse_message``
  (wire round-tripping is structurally lossless by the parser's
  contract); control payloads (overload reports) are pickled.

Two drivers produce bit-identical results: *inline* (all shards
round-robin in one process -- used for ``shards=1``, inside daemonic
pool workers, and under ``REPRO_SHARD_DRIVER=inline``) and *process*
(one worker process per shard, batches exchanged over pipes).
"""

from __future__ import annotations

import math
import os
import pickle
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

# The shard runtime is a driver: what a run measured is computed by the
# harness from per-owner partials, exactly as for a serial run.
from repro.harness.parallel import build_scenario, default_start_method
from repro.harness.runner import (
    assemble,
    assemble_fingerprint,
    fingerprint_partial,
    myshare_sample,
    read_counters,
    window_partial,
)

#: Environment knob selecting the execution driver: ``auto`` (default),
#: ``inline`` or ``process``.  Never part of the run-cache key -- both
#: drivers are bit-identical, so the choice is pure mechanics.
DRIVER_ENV = "REPRO_SHARD_DRIVER"

# Weights for the contiguous partition split: proxies and B2BUAs carry
# the simulated CPU work; endpoints (UACs/UAS/registrars) are light.
_CORE_WEIGHT = 1.0
_EDGE_WEIGHT = 0.125


class ShardPlan:
    """Node ownership map plus the conservative lookahead."""

    __slots__ = ("shards", "owner", "order", "lookahead")

    def __init__(
        self,
        shards: int,
        owner: Dict[str, int],
        order: List[str],
        lookahead: float,
    ):
        self.shards = shards
        self.owner = owner
        self.order = order
        self.lookahead = lookahead

    def owned_by(self, shard: int) -> List[str]:
        return [name for name in self.order if self.owner[name] == shard]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardPlan shards={self.shards} nodes={len(self.owner)} "
            f"lookahead={self.lookahead}>"
        )


def partition_scenario(scenario, shards: int) -> ShardPlan:
    """Assign every network node to one of ``shards`` shards.

    The node space is linearized by walking the builder-provided
    ``partition_hints`` (flow paths, UAC -> ... -> UAS) in order, then
    appending any remaining nodes in network registration order.  The
    linearized sequence is cut into ``shards`` contiguous segments
    balanced by weight (proxies/B2BUAs heavy, endpoints light), so a
    call's signaling path lands in as few shards as the topology
    allows.  Trees whose flows all funnel through one balancer root
    necessarily place that root in a single shard and pay one window
    hop for every other flow -- see docs/ARCHITECTURE.md.

    The plan is a pure function of the scenario structure, so every
    worker process recomputes or receives exactly the same plan.
    """
    shards = int(shards)
    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    names = scenario.network.node_names()
    if shards > len(names):
        raise ValueError(
            f"cannot split {len(names)} nodes into {shards} shards"
        )

    known = set(names)
    order: List[str] = []
    seen = set()
    for path in getattr(scenario, "partition_hints", ()):
        for name in path:
            if name in known and name not in seen:
                seen.add(name)
                order.append(name)
    for name in names:
        if name not in seen:
            seen.add(name)
            order.append(name)

    proxy_like = set(scenario.proxies) | {
        b.name for b in getattr(scenario, "b2buas", ())
    }
    weights = [
        _CORE_WEIGHT if name in proxy_like else _EDGE_WEIGHT
        for name in order
    ]
    total = sum(weights)

    owner: Dict[str, int] = {}
    shard = 0
    acc = 0.0
    filled = 0  # nodes already assigned to the current shard
    for idx, (name, weight) in enumerate(zip(order, weights)):
        remaining = len(order) - idx
        boundary = total * (shard + 1) / shards
        # Close the current shard at the cut nearest its weight
        # quantile: a node whose midpoint falls past the boundary
        # starts the next shard (never leaving a later shard empty).
        if shard < shards - 1 and filled > 0 and (
            acc + weight / 2.0 > boundary
            or remaining == shards - shard  # keep >= 1 node per shard
        ):
            shard += 1
            filled = 0
        owner[name] = shard
        filled += 1
        acc += weight

    lookahead = math.inf
    if shards > 1:
        # The default link applies to every pair without an explicit
        # link, so it always bounds the cut; explicit cross-owner links
        # may tighten it further.
        lookahead = scenario.network.default_link.latency
        for (src, dst), link in scenario.network._links.items():
            if owner.get(src) != owner.get(dst) and link.latency < lookahead:
                lookahead = link.latency
    return ShardPlan(shards, owner, order, lookahead)


def _check_supported(scenario, shards: int) -> None:
    """Reject feature combinations the shard runtime cannot split yet."""
    if shards <= 1:
        return
    if getattr(scenario, "faults", None) is not None:
        raise NotImplementedError(
            "engine='sharded' with shards>1 does not support fault "
            "schedules yet (partitions/crashes are global state); "
            "run with shards=1 or engine='turbo'"
        )
    if getattr(scenario, "observer", None) is not None:
        raise NotImplementedError(
            "engine='sharded' with shards>1 does not support observe= "
            "instrumentation yet; run with shards=1 or engine='turbo'"
        )
    if getattr(scenario.config, "control", None) is not None:
        raise NotImplementedError(
            "engine='sharded' with shards>1 does not support overload "
            "control snapshots yet; run with shards=1 or engine='turbo'"
        )


# ---------------------------------------------------------------------------
# Window schedule
# ---------------------------------------------------------------------------
def _expand_program(
    program: List[Tuple], lookahead: float
) -> List[Tuple]:
    """Expand advance/call ops into explicit window boundaries.

    Every ``("advance", target)`` becomes one ``("window", t)`` op per
    conservative window of width ``lookahead`` (clipped at the target,
    which is always a measurement phase boundary).  An advance that is
    already at its target still emits one no-op window so events
    scheduled exactly at the current time execute before the next mark,
    matching the serial runner's ``run_until(now)`` semantics.

    Both drivers expand the same program with the same lookahead, so
    the coordinator and every worker agree on the number of exchanges.
    """
    ops: List[Tuple] = []
    now = 0.0
    for op in program:
        if op[0] != "advance":
            ops.append(op)
            continue
        target = op[1]
        if target < now:
            raise ValueError("program must advance monotonically")
        emitted = False
        while now < target:
            if lookahead == math.inf:
                step = target
            else:
                step = now + lookahead
                # Clip at the phase boundary; the <= now guard only
                # fires if lookahead vanishes below float resolution.
                if step > target or step <= now:
                    step = target
            ops.append(("window", step))
            now = step
            emitted = True
        if not emitted:
            ops.append(("window", target))
    return ops


def _scenario_program(
    duration: float, warmup: float, drain: float
) -> List[Tuple]:
    """The measurement schedule of ``repro.harness.runner.run_scenario``."""
    if duration <= 0 or warmup < 0:
        raise ValueError("need duration > 0, warmup >= 0")
    return [
        ("call", "start"),
        ("advance", warmup),
        ("call", "snapshot"),
        ("advance", warmup + duration),
        ("call", "snapshot"),
        ("call", "stop"),
        ("advance", warmup + duration + drain),
    ]


def _fingerprint_program(
    run_for: float, slices: int, drain: float
) -> List[Tuple]:
    """The slicing schedule of ``runner.fingerprint_scenario``."""
    ops: List[Tuple] = [("call", "start")]
    for i in range(1, slices + 1):
        ops.append(("advance", run_for * i / slices))
        ops.append(("call", "myshare"))
    ops.append(("call", "stop"))
    ops.append(("advance", run_for + drain))
    return ops


# ---------------------------------------------------------------------------
# Per-shard world
# ---------------------------------------------------------------------------
def _encode_payload(payload) -> Tuple[str, Any]:
    from repro.sip.message import SipMessage

    if isinstance(payload, SipMessage):
        return ("sip", payload.to_wire())
    return ("pickle", pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _decode_payload(kind: str, data) -> Any:
    if kind == "sip":
        from repro.sip.parser import parse_message

        return parse_message(data)
    return pickle.loads(data)


class _ShardWorld:
    """One shard: a full scenario replica plus ownership bookkeeping."""

    def __init__(self, scenario, shard_id: int, plan: ShardPlan):
        self.scenario = scenario
        self.shard_id = shard_id
        self.plan = plan
        self.loop = scenario.loop
        self.network = scenario.network
        self.owned = {
            name for name, s in plan.owner.items() if s == shard_id
        }
        self.generators = [
            g for g in scenario.generators if g.name in self.owned
        ]
        self.registrars = [
            r for r in scenario.registrars if r.name in self.owned
        ]
        self.outbox: List[Tuple[int, Tuple]] = []
        self._serial = 0
        self.cross_sent = 0
        self.readings: List[dict] = []
        self.myshare: List[dict] = []
        # Silence non-owned replicas: the proxy monitor is the only
        # constructor-scheduled timer in the tree; everything else only
        # runs when started, and we never start non-owned load.
        for name, proxy in scenario.proxies.items():
            if name not in self.owned:
                handle = getattr(proxy, "_monitor_handle", None)
                if handle is not None:
                    handle.cancel()
        scenario.network.shard_router = self._route

    # -- cross-shard transport ----------------------------------------
    def _route(self, src: str, dst: str, payload, delay: float) -> bool:
        target = self.plan.owner.get(dst)
        if target is None or target == self.shard_id:
            return False
        now = self.loop.now
        self._serial += 1
        self.cross_sent += 1
        kind, data = _encode_payload(payload)
        self.outbox.append(
            (
                target,
                (now + delay, now, self.shard_id, self._serial,
                 src, dst, kind, data),
            )
        )
        return True

    def take_outbox(self) -> List[Tuple[int, Tuple]]:
        out = self.outbox
        self.outbox = []
        return out

    def ingest(self, envelopes: List[Tuple]) -> None:
        """Schedule a window's incoming envelopes for delivery.

        Sorting by (arrival, sent_at, source shard, serial) makes the
        heap insertion order independent of shard count and transport;
        ``schedule_at`` raises on any arrival at or before the current
        window boundary, so a lookahead violation fails loudly instead
        of silently reordering.
        """
        from repro.sim.network import Packet

        loop = self.loop
        deliver = self.network._deliver
        for env in sorted(envelopes, key=lambda e: e[:4]):
            arrival, sent_at, _shard, _serial, src, dst, kind, data = env
            packet = Packet(src, dst, _decode_payload(kind, data), sent_at)
            loop.schedule_at(arrival, deliver, packet)

    # -- program marks -------------------------------------------------
    def do(self, tag: str) -> None:
        if tag == "start":
            # Same sub-order as Scenario.start(): registrars before
            # generators so the t=0 REGISTERs stay ahead of first calls.
            for registrar in self.registrars:
                registrar.start()
            for generator in self.generators:
                generator.start()
        elif tag == "stop":
            for registrar in self.registrars:
                registrar.stop()
            for generator in self.generators:
                generator.stop()
        elif tag == "snapshot":
            self.readings.append(read_counters(self.scenario, self.owned))
        elif tag == "myshare":
            self.myshare.append(myshare_sample(self.scenario, self.owned))
        else:  # pragma: no cover - programs are module-internal
            raise ValueError(f"unknown program mark: {tag}")

    # -- partial extraction -------------------------------------------
    def collect(self, kind: str) -> dict:
        """This shard's partial (repro.harness.runner's, for the owned
        nodes) plus its cross-shard send count."""
        if kind == "fingerprint":
            partial = fingerprint_partial(
                self.scenario, self.myshare, self.owned
            )
        else:
            before, after = self.readings
            partial = window_partial(self.scenario, before, after, self.owned)
        partial["cross_sent"] = self.cross_sent
        return partial


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------
def _select_driver(shards: int) -> str:
    choice = os.environ.get(DRIVER_ENV, "auto").strip().lower() or "auto"
    if choice not in ("auto", "inline", "process"):
        raise ValueError(
            f"{DRIVER_ENV} must be auto, inline or process: {choice!r}"
        )
    if shards <= 1 or choice == "inline":
        return "inline"
    import multiprocessing

    if multiprocessing.current_process().daemon:
        # Daemonic pool workers cannot spawn children; the inline
        # driver is bit-identical, so fall back silently.
        return "inline"
    return "process"


def _route_mails(
    shards: int, mails: List[List[Tuple[int, Tuple]]]
) -> List[List[Tuple]]:
    inboxes: List[List[Tuple]] = [[] for _ in range(shards)]
    for mail in mails:
        for target, env in mail:
            inboxes[target].append(env)
    return inboxes


def _drive_inline(
    payload: dict,
    kind: str,
    shards: int,
    program: List[Tuple],
    timing: Optional[dict],
) -> Tuple[List[dict], ShardPlan, int]:
    t0 = perf_counter()
    scenario0 = build_scenario(payload)
    plan = partition_scenario(scenario0, shards)
    _check_supported(scenario0, shards)
    worlds = [_ShardWorld(scenario0, 0, plan)]
    for k in range(1, shards):
        worlds.append(_ShardWorld(build_scenario(payload), k, plan))
    windows = 0
    for op in _expand_program(program, plan.lookahead):
        if op[0] == "window":
            windows += 1
            target = op[1]
            mails = []
            for world in worlds:
                world.loop.run_until(target)
                mails.append(world.take_outbox())
            for world, inbox in zip(worlds, _route_mails(shards, mails)):
                world.ingest(inbox)
        else:
            for world in worlds:
                world.do(op[1])
    partials = [world.collect(kind) for world in worlds]
    if timing is not None:
        timing.update(
            driver="inline",
            wall_s=perf_counter() - t0,
            barrier_wait_s=0.0,
            windows=windows,
        )
    return partials, plan, windows


def _shard_worker_main(
    conn, payload: dict, kind: str, shard_id: int, plan: ShardPlan,
    program: List[Tuple],
) -> None:
    """Entry point of one spawned shard process."""
    try:
        t0 = perf_counter()
        wait = 0.0
        world = _ShardWorld(build_scenario(payload), shard_id, plan)
        for op in _expand_program(program, plan.lookahead):
            if op[0] == "window":
                world.loop.run_until(op[1])
                conn.send(("mail", world.take_outbox()))
                w0 = perf_counter()
                inbox = conn.recv()
                wait += perf_counter() - w0
                world.ingest(inbox)
            else:
                world.do(op[1])
        partial = world.collect(kind)
        conn.send(
            ("done", partial,
             {"barrier_wait_s": wait, "wall_s": perf_counter() - t0})
        )
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


def _drive_process(
    payload: dict,
    kind: str,
    shards: int,
    plan: ShardPlan,
    program: List[Tuple],
    timing: Optional[dict],
) -> Tuple[List[dict], int]:
    import multiprocessing

    ctx = multiprocessing.get_context(default_start_method())
    t0 = perf_counter()
    conns = []
    procs = []
    windows = 0
    try:
        for shard_id in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, payload, kind, shard_id, plan, program),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        for op in _expand_program(program, plan.lookahead):
            if op[0] != "window":
                continue
            windows += 1
            mails = []
            for conn in conns:
                msg = conn.recv()
                if msg[0] == "error":
                    raise RuntimeError(f"shard worker failed:\n{msg[1]}")
                mails.append(msg[1])
            for conn, inbox in zip(conns, _route_mails(shards, mails)):
                conn.send(inbox)

        partials = []
        waits = []
        walls = []
        for conn in conns:
            msg = conn.recv()
            if msg[0] == "error":
                raise RuntimeError(f"shard worker failed:\n{msg[1]}")
            partials.append(msg[1])
            waits.append(msg[2]["barrier_wait_s"])
            walls.append(msg[2]["wall_s"])
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
    if timing is not None:
        busy = sum(walls)
        timing.update(
            driver="process",
            wall_s=perf_counter() - t0,
            barrier_wait_s=sum(waits),
            # Fraction of total worker time spent blocked on a window
            # barrier: the honest parallelism tax.
            barrier_stall_fraction=(sum(waits) / busy) if busy > 0 else 0.0,
            windows=windows,
        )
    return partials, windows


# ---------------------------------------------------------------------------
# Shard accounting
# ---------------------------------------------------------------------------
def _sharded_summary(
    plan: ShardPlan, windows: int, partials: List[dict]
) -> dict:
    """Deterministic per-run shard accounting (cache-safe: no wall time)."""
    return {
        "shards": plan.shards,
        "lookahead": (
            None if math.isinf(plan.lookahead) else plan.lookahead
        ),
        "windows": windows,
        "cross_messages": sum(p["cross_sent"] for p in partials),
        "events_per_shard": [p["events"] for p in partials],
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _run(payload: dict, kind: str, program: List[Tuple],
         timing: Optional[dict]) -> Tuple[List[dict], ShardPlan, int]:
    shards = int(payload["config"].get("shards") or 1)
    driver = _select_driver(shards)
    if driver == "inline":
        return _drive_inline(payload, kind, shards, program, timing)
    probe = build_scenario(payload)
    plan = partition_scenario(probe, shards)
    _check_supported(probe, shards)
    partials, windows = _drive_process(
        payload, kind, shards, plan, program, timing
    )
    return partials, plan, windows


def run_sharded_scenario(
    payload: dict, timing: Optional[dict] = None
) -> dict:
    """Execute a ``scenario`` spec payload under the sharded engine.

    Returns the same ``{"result", "extras"}`` dict as
    ``repro.harness.parallel._job_scenario``, with one additional
    ``extras["sharded"]`` summary.  ``timing``, when given, is filled
    in place with wall-clock observables (driver, wall_s,
    barrier_wait_s, ...) that must never enter the cached result.
    """
    program = _scenario_program(
        payload["duration"], payload["warmup"], payload.get("drain", 0.0)
    )
    partials, plan, windows = _run(payload, "scenario", program, timing)
    output = assemble(partials)
    # Present only under engine="sharded", like the obs/control/hybrid
    # keys of repro.harness.parallel.scenario_job.
    output["extras"]["sharded"] = _sharded_summary(plan, windows, partials)
    return output


def run_sharded_fingerprint(
    payload: dict, timing: Optional[dict] = None
) -> dict:
    """Execute a ``fingerprint`` spec payload under the sharded engine."""
    program = _fingerprint_program(
        payload["run_for"],
        int(payload.get("slices", 6)),
        payload.get("drain", 0.0),
    )
    partials, plan, windows = _run(payload, "fingerprint", program, timing)
    output = assemble_fingerprint(partials)
    output["sharded"] = _sharded_summary(plan, windows, partials)
    return output
