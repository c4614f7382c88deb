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
  scheduling.  An envelope carries fields, not text: a SIP message
  crosses as ``(method | status, URI text | reason, tuple(headers),
  body)`` and is rebuilt with the ordinary constructors, so the receiver
  holds the header list serial turbo's ``copy()`` would have handed it;
  control payloads (overload reports) are pickled.

Two drivers run the same window step and produce bit-identical results.
*Inline* holds every shard in one process and hands batches over by
reference (``shards=1``, daemonic pool workers,
``REPRO_SHARD_DRIVER=inline``).  *Process* runs one worker per shard and
no coordinator: the parent starts the workers, builds its own probe
while they import, then only waits for their partials; each pair of
shards swaps batches over its own duplex link (an empty message is the
barrier token), polling and yielding the core instead of sleeping.
"""

from __future__ import annotations

import math
import os
import pickle
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

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
from repro.sim.events import collector_off
from repro.sim.network import Packet
from repro.sip.message import SipRequest, SipResponse
from repro.sip.uri import parse_uri
from repro.workloads.scenarios import ScenarioConfig

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


# ---------------------------------------------------------------------------
# Window schedule
# ---------------------------------------------------------------------------
def _expand_program(
    program: List[Tuple], lookahead: float
) -> Iterator[Tuple]:
    """Expand advance/call ops into window boundaries, one at a time.

    Every ``("advance", target)`` becomes one ``("window", t)`` op per
    conservative window of width ``lookahead`` (clipped at the target,
    which is always a measurement phase boundary).  An advance that is
    already at its target still emits one no-op window so events
    scheduled exactly at the current time execute before the next mark,
    matching the serial runner's ``run_until(now)`` semantics.  Every
    shard expands the same program with the same lookahead, so all of
    them count the same exchanges.
    """
    now = 0.0
    for op in program:
        if op[0] != "advance":
            yield op
            continue
        target = op[1]
        if target < now:
            raise ValueError("program must advance monotonically")
        while True:
            # Clipped at the phase boundary; no progress means a
            # zero-length advance (or a lookahead below float resolution).
            step = min(target, now + lookahead)
            if step <= now:
                step = target
            yield ("window", step)
            now = step
            if now >= target:
                break


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
    """A SIP message as its fields (the header list as an immutable
    snapshot), anything else pickled."""
    if isinstance(payload, SipRequest):
        return ("request", (payload.method, str(payload.uri),
                            tuple(payload.headers), payload.body))
    if isinstance(payload, SipResponse):
        return ("response", (payload.status, payload.reason,
                             tuple(payload.headers), payload.body))
    return ("pickle", pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _decode_payload(kind: str, data) -> Any:
    """The ordinary constructors give the receiver a private header list."""
    if kind == "request":
        method, uri, headers, body = data
        return SipRequest(method, parse_uri(uri), headers, body)
    if kind == "response":
        return SipResponse(*data)
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
        #: What this window sent, one box per destination shard, and
        #: what the peers handed over at the last boundary.
        self.outboxes: List[List[Tuple]] = [[] for _ in range(plan.shards)]
        self.inbox: List[Tuple] = []
        self.cross_sent = 0
        self.barrier_wait_s = 0.0
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
        self.cross_sent += 1  # doubles as this shard's envelope serial
        self.outboxes[target].append(
            (now + delay, now, self.shard_id, self.cross_sent, src, dst)
            + _encode_payload(payload)
        )
        return True

    def ingest(self) -> None:
        """Schedule the inbox for delivery and empty it.

        Envelopes lead with (arrival, sent_at, source shard, serial) and
        no two share a (shard, serial), so plain tuple order is that key:
        heap insertion never depends on shard count or transport.  An
        arrival at or before the current boundary (a lookahead
        violation) makes ``schedule_at`` raise.
        """
        self.inbox.sort()
        for arrival, sent_at, _, _, src, dst, kind, data in self.inbox:
            packet = Packet(src, dst, _decode_payload(kind, data), sent_at)
            self.loop.schedule_at(arrival, self.network._deliver, packet)
        self.inbox.clear()

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


def _run_program(
    worlds: List[_ShardWorld], program: List[Tuple], lookahead: float,
    hand_over: Callable[[_ShardWorld], None],
) -> int:
    """Drive the shards this process holds (all of them inline, one in
    a process-driver worker) through ``program``; the window count.

    The window step: every shard runs to the boundary, ``hand_over``
    empties each one's outboxes into their owners' inboxes (which then
    hold the whole window), and a shard that was sent something ingests.
    """
    windows = 0
    with collector_off():
        for tag, arg in _expand_program(program, lookahead):
            if tag == "window":
                windows += 1
                for world in worlds:
                    world.loop.run_until(arg)
                for world in worlds:
                    hand_over(world)
                for world in worlds:
                    if world.inbox:
                        world.ingest()
            else:
                for world in worlds:
                    world.do(arg)
    return windows


def _drive_inline(
    payload: dict, kind: str, shards: int, program: List[Tuple]
) -> Tuple[List[dict], ShardPlan, int, float, float]:
    scenario0 = build_scenario(payload)
    plan = partition_scenario(scenario0, shards)
    worlds = [_ShardWorld(scenario0, 0, plan)]
    for k in range(1, shards):
        worlds.append(_ShardWorld(build_scenario(payload), k, plan))

    def hand_over(world: _ShardWorld) -> None:
        for box, owner in zip(world.outboxes, worlds):
            if box:
                owner.inbox.extend(box)
                box.clear()

    windows = _run_program(worlds, program, plan.lookahead, hand_over)
    return [w.collect(kind) for w in worlds], plan, windows, 0.0, 0.0


def _link_hand_over(links: Dict[int, Any]) -> Callable[[_ShardWorld], None]:
    """The process driver's hand-over: swap batches with every peer.

    ``links`` maps a peer's shard id to this shard's end of their link.
    Peers are served in id order and on each link the lower id sends
    first while the higher receives first, so a batch larger than the
    link's buffer is always written to a peer that is reading.  Waiting
    polls and gives up the core: a peer without one runs instead of this
    loop, one with a core is answered within a poll, not a wake-up, and
    one that is gone raises ``EOFError`` (or a ``ConnectionError``) here.
    """
    peers = sorted(links.items())

    def hand_over(world: _ShardWorld) -> None:
        for peer, link in peers:
            box = world.outboxes[peer]
            batch = pickle.dumps(box, pickle.HIGHEST_PROTOCOL) if box else b""
            box.clear()
            if world.shard_id < peer:
                link.send_bytes(batch)
            w0 = perf_counter()
            while not link.poll(0):
                os.sched_yield()
            theirs = link.recv_bytes()
            world.barrier_wait_s += perf_counter() - w0
            if world.shard_id > peer:
                link.send_bytes(batch)
            if theirs:
                world.inbox.extend(pickle.loads(theirs))

    return hand_over


def _shard_worker_main(
    report, links: Dict[int, Any], payload: dict, kind: str,
    shard_id: int, program: List[Tuple],
) -> None:
    """Entry point of one shard process: build, run, report."""
    try:
        t0 = perf_counter()
        scenario = build_scenario(payload)
        plan = partition_scenario(scenario, len(links) + 1)
        world = _ShardWorld(scenario, shard_id, plan)
        windows = _run_program(
            [world], program, plan.lookahead, _link_hand_over(links)
        )
        report.send(("done", world.collect(kind), windows,
                     world.barrier_wait_s, perf_counter() - t0))
    except (EOFError, ConnectionError):
        report.send(("lost",))  # a peer is gone; its own end says why
    except Exception:
        import traceback

        report.send(("error", traceback.format_exc()))


def _drive_process(
    payload: dict, kind: str, shards: int, program: List[Tuple]
) -> Tuple[List[dict], ShardPlan, int, float, float]:
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context(default_start_method())
    links: List[Dict[int, Any]] = [{} for _ in range(shards)]
    for low in range(shards):
        for high in range(low + 1, shards):
            links[low][high], links[high][low] = ctx.Pipe()
    procs: list = []
    reports: Dict[Any, int] = {}  # the parent's end -> shard id
    done: Dict[int, list] = {}
    try:
        for shard_id in range(shards):
            report, child_end = ctx.Pipe(duplex=False)
            mine = links[shard_id]
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_end, mine, payload, kind, shard_id, program),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
            for end in (child_end, *mine.values()):
                end.close()  # the worker's now, so that its death is EOF
            reports[report] = shard_id
        # The workers are starting; build the probe meanwhile.
        probe = build_scenario(payload)
        plan = partition_scenario(probe, shards)
        waiting = dict(reports)
        while waiting:
            for report in wait(list(waiting)):
                shard_id = waiting.pop(report)
                try:
                    tag, *rest = report.recv()
                except EOFError:  # killed, out of memory, failed to start
                    procs[shard_id].join(timeout=10)
                    tag, rest = "error", [
                        f"exited with code {procs[shard_id].exitcode} "
                        "before it reported"
                    ]
                if tag == "error":
                    raise RuntimeError(
                        f"shard {shard_id} worker failed: {rest[0]}"
                    )
                if tag == "done":
                    done[shard_id] = rest
    finally:
        for report in reports:
            report.close()
        for proc in procs:
            if len(done) < shards:  # failed: nobody is left spinning
                proc.terminate()
            proc.join()
    partials, windows, waits, walls = zip(*(done[k] for k in range(shards)))
    return list(partials), plan, windows[0], sum(waits), sum(walls)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _run(payload: dict, kind: str, program: List[Tuple],
         timing: Optional[dict]) -> Tuple[List[dict], dict]:
    """The shards' partials and the run's shard accounting (cache-safe:
    wall time only ever goes to ``timing``)."""
    # What the engine refuses leaves here, before a worker starts.
    shards = ScenarioConfig.from_payload(payload["config"]).shards
    driver = _select_driver(shards)
    drive = _drive_inline if driver == "inline" else _drive_process
    t0 = perf_counter()
    partials, plan, windows, waited, busy = drive(
        payload, kind, shards, program
    )
    if timing is not None:
        timing.update(
            driver=driver, wall_s=perf_counter() - t0, windows=windows,
            barrier_wait_s=waited,
            # Share of worker time spent waiting at a window barrier:
            # the honest parallelism tax (none inline).
            barrier_stall_fraction=(waited / busy) if busy > 0 else 0.0,
        )
    return partials, {
        "shards": plan.shards,
        "lookahead": None if math.isinf(plan.lookahead) else plan.lookahead,
        "windows": windows,
        "cross_messages": sum(p["cross_sent"] for p in partials),
        "events_per_shard": [p["events"] for p in partials],
    }


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
    partials, summary = _run(payload, "scenario", program, timing)
    output = assemble(partials)
    # Present only under engine="sharded", like the obs/control
    # keys of repro.harness.parallel.scenario_job.
    output["extras"]["sharded"] = summary
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
    partials, summary = _run(payload, "fingerprint", program, timing)
    output = assemble_fingerprint(partials)
    output["sharded"] = summary
    return output
