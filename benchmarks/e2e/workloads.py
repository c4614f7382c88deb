"""The five workloads: inputs, the timed call, and what each run reports.

Every workload has the same four steps, driven by ``run.py``:

- the constructor builds the inputs from ``--seed`` (specs, fault
  schedule, scratch directory) -- part of ``setup_s``;
- ``prepare()`` builds what one run consumes (a live scenario, a fresh
  cache directory) -- untimed, its first call is part of ``setup_s``;
- ``run(ctx)`` is the timed section, one public call into the simulator;
- ``observe(ctx, out)`` reads the result: fingerprint, simulated
  figures, exact counters, and any problem that fails the operation.

``cross_check()`` runs the workload's oracle once per process, untimed.

Offered load inside the simulation is open loop (Poisson arrivals at
the stated paper-equivalent cps); host-side each run is batch work at a
fixed input size, so the benchmark reports work per host second.

``SIZES["full"]`` are the canonical inputs (``chain_steady`` there is
``BENCH_engine.json``'s ``two_series`` quick cell: 272,609 events and
8,150 calls at seed 1).  ``bench`` keeps every rate, topology, policy
and engine and only shortens the simulated windows, so that a run is
short enough to repeat several times inside ``--seconds``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from repro import api
from repro.harness.parallel import (
    ExecutionContext,
    SpecTemplate,
    build_scenario,
    execution,
    run_specs,
    scenario_spec,
)
from repro.harness.runcache import RunCache
from repro.harness.runner import run_scenario
from repro.sim.shard import DRIVER_ENV, run_sharded_scenario

import checks

SIZES = {
    "chain_steady": {
        "full": dict(warmup=2.0, duration=6.0),
        "bench": dict(warmup=0.25, duration=0.75),
        "smoke": dict(warmup=0.25, duration=0.5),
    },
    "chain_faults": {
        "full": dict(warmup=2.0, duration=6.0, drain=4.0, downtime=0.5,
                     crashes=((3.3, "P1"), (5.7, "P2"))),
        "bench": dict(warmup=1.0, duration=2.0, drain=1.5, downtime=0.25,
                      crashes=((1.4, "P1"), (2.2, "P2"))),
        "smoke": dict(warmup=0.25, duration=0.5, drain=0.5, downtime=0.1,
                      crashes=((0.35, "P1"), (0.55, "P2"))),
    },
    "mesh_sharded": {
        "full": dict(warmup=2.0, duration=6.0, drain=1.0),
        "bench": dict(warmup=0.5, duration=1.0, drain=0.25),
        "smoke": dict(warmup=0.25, duration=0.5, drain=0.25),
    },
    "fig5_sweep": {
        "full": dict(warmup=2.0, duration=4.0),
        "bench": dict(warmup=0.5, duration=0.5),
        "smoke": dict(warmup=0.25, duration=0.5),
    },
}
SIZES["chain_wire"] = SIZES["chain_steady"]


def _window_calls(result: dict, scale: float) -> float:
    """Calls attempted inside the measurement window of one run."""
    return result["attempted_cps"] * result["duration"] / scale


def _counters(results: List[dict]) -> Dict[str, float]:
    """The exact per-layer counters a list of RunResult payloads holds."""
    stateful = sum(sum(r["proxy_stateful_cps"].values()) for r in results)
    stateless = sum(sum(r["proxy_stateless_cps"].values()) for r in results)
    total = stateful + stateless
    return {
        "sip.transaction.retransmissions":
            sum(r["retransmissions"] for r in results),
        "servers.proxy.rejected_500":
            sum(r["server_busy_500"] for r in results),
        "servers.proxy.max_utilization":
            max(max(r["proxy_utilization"].values()) for r in results),
        "sim.network.dropped_messages":
            sum(r["dropped_messages"] for r in results),
        "core.policy.stateful_share": stateful / total if total else 0.0,
    }


def _observed(*, headline: dict, results: List[dict], scale: float,
              events: int, calls: int, fingerprint: str,
              goodput: Optional[float] = None, problems=(),
              **extra) -> dict:
    return dict(
        fingerprint=fingerprint,
        problems=list(problems),
        calls=calls,
        events=events,
        goodput=headline["throughput_cps"] if goodput is None else goodput,
        rt=headline["invite_rt"],
        window_attempted=sum(_window_calls(r, scale) for r in results),
        window_failed=sum(r["failed_calls"] for r in results),
        counters=_counters(results),
        payload=headline,
        **extra,
    )


class Workload:
    """What ``run.py`` drives; subclasses fill in the four steps."""

    def __init__(self, name: str, seed: int, size: str, scratch: str):
        self.name = name
        self.seed = seed
        self.window = dict(SIZES[name][size])
        self.scratch = scratch

    def cross_check(self, ledger: checks.Ledger, first: dict,
                    stopwatch) -> None:
        """Run the workload's oracle, if it has one beyond the checks
        ``observe`` makes on every run."""

    def layer_extras(self, ledger: checks.Ledger, first: dict,
                     stopwatch) -> Dict[str, float]:
        """Traced pass only: layer figures that need runs of their own."""
        return {}


class Chain(Workload):
    """Two proxies in series (``n_series``, ``n=2``), SERvartuka policy."""

    #: name -> (engine, paper-equivalent cps)
    VARIANTS = {
        "chain_steady": ("turbo", 10_000.0),
        "chain_wire": ("reference", 10_000.0),
        "chain_faults": ("turbo", 8_000.0),
    }
    scale = 10.0  # ScenarioConfig's default

    def __init__(self, name: str, seed: int, size: str, scratch: str,
                 engine: Optional[str] = None):
        super().__init__(name, seed, size, scratch)
        self.engine, self.rate = self.VARIANTS[name]
        if engine is not None:
            self.engine = engine
        self.crashes = self.window.pop("crashes", ())
        self.downtime = self.window.pop("downtime", 0.0)
        self.oracle = None
        if self.engine == "reference":
            self.oracle = Chain(name, seed, size, scratch, engine="turbo")

    def prepare(self):
        scenario = api.make_scenario(
            "n_series", n=2, rate=self.rate, policy="servartuka",
            engine=self.engine, seed=self.seed,
        )
        if self.crashes:
            schedule = api.FaultSchedule().set_loss(0.0, "P1", "P2", 0.10)
            for when, node in self.crashes:
                schedule.crash(when, node, downtime=self.downtime)
            scenario.install_faults(schedule)
        return scenario

    def run(self, scenario):
        return run_scenario(scenario, **self.window)

    def observe(self, scenario, result) -> dict:
        payload = result.to_payload()
        events = scenario.loop.events_processed
        problems = []
        if not checks.conserves_calls(scenario):
            problems.append("call conservation broken")
        return _observed(
            headline=payload, results=[payload], scale=self.scale,
            events=events,
            calls=sum(s.calls_completed for s in scenario.servers),
            fingerprint=checks.fingerprint(
                payload, events, checks.registry_snapshots(scenario)),
            problems=problems,
        )

    def cross_check(self, ledger: checks.Ledger, first: dict,
                    stopwatch) -> None:
        """``chain_wire``: the turbo rung must report the same run."""
        if self.oracle is None:
            return
        scenario = self.oracle.prepare()
        seen = self.oracle.observe(scenario, self.oracle.run(scenario))
        ledger.record(
            "turbo oracle", seen["fingerprint"] == first["fingerprint"],
            "reference and turbo rungs disagree",
        )


class MeshSharded(Workload):
    """51-proxy generated mesh on the sharded rung, 2 shards.

    The timed runs use the *inline* driver (both shards round-robin in
    this process): all of ``sim.shard``'s own work -- windows, routing,
    wire round-trips of cross-shard messages -- and CPU-bound, so it
    can be timed.  The default *process* driver is three processes
    ping-ponging over pipes once per window; on this sandbox its wall
    clock is set by vCPU wake-up latency (the same run took 1.9 s and
    6.5 s in periods a few minutes apart while CPU-bound runs did not
    move), which no bound could hold.  It is run and checked once per
    traced pass and reported per layer.
    """

    scale = 50.0
    #: 0.8 x the LP oracle bound of this topology (33,652 cps), so the
    #: mesh is loaded but below saturation.
    rate = 26_900.0
    shards = 2

    def __init__(self, name: str, seed: int, size: str, scratch: str):
        super().__init__(name, seed, size, scratch)
        topology = api.generate_topology(
            "mesh", size=51, seed=1, heterogeneity=0.3)
        self._kwargs = dict(topology.spec(), policy="servartuka")
        self._config = {"scale": self.scale, "seed": seed,
                        "monitor_period": 1.0}
        self.payload = self._payload("sharded", shards=self.shards)
        self.turbo_wall_s = 0.0

    def _payload(self, engine: str, **config) -> dict:
        return scenario_spec(
            "generated", rate=self.rate,
            config=dict(self._config, engine=engine, **config),
            **self.window, **self._kwargs,
        ).payload

    def prepare(self) -> dict:
        return {}  # filled by the run with the driver's wall-clock split

    def run(self, timing: dict, driver: str = "inline"):
        saved = os.environ.get(DRIVER_ENV)
        os.environ[DRIVER_ENV] = driver
        try:
            return run_sharded_scenario(dict(self.payload), timing=timing)
        finally:
            if saved is None:
                del os.environ[DRIVER_ENV]
            else:
                os.environ[DRIVER_ENV] = saved

    def observe(self, timing: dict, out: dict) -> dict:
        result, extras = out["result"], out["extras"]
        sharded = extras["sharded"]
        return _observed(
            headline=result, results=[result], scale=self.scale,
            events=extras["events"],
            calls=sum(extras["uas_calls_completed"]),
            fingerprint=checks.fingerprint(result, extras["events"]),
            windows=sharded["windows"],
            cross_messages=sharded["cross_messages"],
            driver=timing["driver"],
        )

    def cross_check(self, ledger: checks.Ledger, first: dict,
                    stopwatch) -> None:
        """The merged payload must be byte-identical to serial turbo's."""
        scenario = build_scenario(self._payload("turbo"))
        stopwatch.start()
        result = run_scenario(scenario, **self.window)
        self.turbo_wall_s = stopwatch.stop()["wall_s"]
        same = (
            result.to_payload() == first["payload"]
            and scenario.loop.events_processed == first["events"]
        )
        ledger.record("turbo oracle", same,
                      "sharded payload differs from serial turbo's")
        ledger.record("turbo conservation", checks.conserves_calls(scenario),
                      "call conservation broken")

    def layer_extras(self, ledger: checks.Ledger, first: dict,
                     stopwatch) -> Dict[str, float]:
        """The process driver, once: same payload, and what it costs."""
        timing: dict = {}
        stopwatch.start()
        out = self.run(timing, driver="process")
        wall = stopwatch.stop()["wall_s"]
        seen = self.observe(timing, out)
        ledger.record("process driver",
                      seen["fingerprint"] == first["fingerprint"],
                      "process and inline drivers disagree")
        return {
            "sim.shard.turbo_wall_s": self.turbo_wall_s,
            "sim.shard.process_wall_s": wall,
            "sim.shard.process_speedup_vs_turbo": self.turbo_wall_s / wall,
            "sim.shard.barrier_stall_fraction":
                timing["barrier_stall_fraction"],
        }


class Fig5Sweep(Workload):
    """Figure 5: static vs SERvartuka over six loads, pool + run cache."""

    scale = 25.0
    jobs = 2
    policies = ("static", "servartuka")
    loads = (8500, 9000, 9500, 10000, 10500, 11000)
    #: The paper's saturation throughputs (Figure 5), cps.
    paper = {"static": 8540.0, "servartuka": 9790.0}

    def prepare(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.scratch)

    def _sweeps(self, cache_dir: str, jobs: int):
        """Both policies' sweeps under one execution context."""
        with execution(jobs=jobs, use_cache=True,
                       cache_dir=cache_dir) as context:
            sweeps = {
                policy: api.sweep(
                    "n_series", n=2, policy=policy, loads=list(self.loads),
                    scale=self.scale, seed=self.seed, engine="turbo",
                    **self.window,
                )
                for policy in self.policies
            }
        return context, sweeps

    def run(self, cache_dir: str):
        return self._sweeps(cache_dir, self.jobs)

    @staticmethod
    def _payloads(sweeps) -> List[dict]:
        return [point.result.to_payload()
                for sweep in sweeps.values() for point in sweep]

    def observe(self, cache_dir: str, out) -> dict:
        context, sweeps = out
        cold = self._payloads(sweeps)
        start = time.perf_counter()
        warm_context, warm_sweeps = self._sweeps(cache_dir, self.jobs)
        warm_wall = time.perf_counter() - start
        cache_stats = RunCache(cache_dir).stats()
        shutil.rmtree(cache_dir, ignore_errors=True)

        problems = []
        if self._payloads(warm_sweeps) != cold:
            problems.append("warm replay differs from the cold sweep")
        if warm_context.stats.hit_rate() != 1.0:
            problems.append("warm replay missed the run cache")
        extras = [entry["extras"] for entry in context.memo.values()]
        events = sum(e["events"] for e in extras)
        peak = {p: sweeps[p].max_throughput for p in self.policies}
        at_10k = next(point.result for point in sweeps["servartuka"]
                      if point.offered_cps == 10000)
        return _observed(
            headline=at_10k.to_payload(), results=cold, scale=self.scale,
            events=events,
            calls=sum(sum(e["uas_calls_completed"]) for e in extras),
            fingerprint=checks.fingerprint(cold, events),
            goodput=peak["servartuka"],
            problems=problems,
            paper_err_pct=100.0 * sum(
                abs(peak[p] - self.paper[p]) / self.paper[p]
                for p in self.policies) / len(self.policies),
            jobs_effective=context.jobs,
            retried_chunks=context.stats.retried_chunks,
            warm_wall_ms=warm_wall * 1e3,
            hit_rate=warm_context.stats.hit_rate(),
            bytes_per_entry=cache_stats["bytes"] / cache_stats["entries"],
        )

    def layer_extras(self, ledger: checks.Ledger, first: dict,
                     stopwatch) -> Dict[str, float]:
        """Pool overheads: the grid once on one job, and a bare spawn."""
        cache_dir = self.prepare()
        stopwatch.start()
        self._sweeps(cache_dir, 1)
        serial = stopwatch.stop()["wall_s"]
        shutil.rmtree(cache_dir, ignore_errors=True)

        template = SpecTemplate(
            "n_series", api.ScenarioConfig(
                scale=self.scale, seed=self.seed, engine="turbo"),
            n=2, policy="servartuka",
        )
        specs = [template.at(load, 0.05, 0.0) for load in self.loads[:2]]
        stopwatch.start()
        run_specs(specs, context=ExecutionContext(jobs=self.jobs))
        spawn = stopwatch.stop()["wall_s"]
        return {"harness.pool.serial_wall_s": serial,
                "harness.pool.spawn_s": spawn}


def make(name: str, seed: int, size: str, scratch: str):
    """Build one workload's inputs; ``scratch`` is its private directory."""
    os.makedirs(scratch, exist_ok=True)
    if name in Chain.VARIANTS:
        return Chain(name, seed, size, scratch)
    return {"mesh_sharded": MeshSharded, "fig5_sweep": Fig5Sweep}[name](
        name, seed, size, scratch)
