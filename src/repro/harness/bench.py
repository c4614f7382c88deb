"""Wall-clock benchmark of the simulation engines.

Every simulated *result* in this repository is engine-independent: the
``reference`` (wire-faithful per-hop serialization) and ``turbo``
(timer wheel, copy-on-write messages, parse interning, object pooling,
fused forwarding and relaxed GC; the default) engines are required to
produce bit-identical metrics (see
``tests/engine/test_differential.py``).  What differs is how much host
CPU a run burns, and that is what this module measures:

- **calls/sec** -- completed calls per wall-clock second (how fast the
  simulator chews through SIP traffic),
- **events/sec** -- event-loop callbacks per wall-clock second,
- **peak RSS** -- the process high-water mark after the run
  (``ru_maxrss``; note this is monotone across a process, so within one
  bench invocation later runs can only report an equal or larger value),
- **speedup** -- turbo's wall-clock vs the wire-faithful reference
  baseline of the same run.

Every bench run re-verifies the differential contract on its own
output: the per-node metric registries, run observables and event
counts of all engines are compared for equality, and ``identical``
is recorded per scenario in the report.

Three scenarios cover the evaluation's behaviour space: the canonical
two-in-series chain, the Figure-8 parallel fork, and the resilience
fault campaign (crashes + lossy links + retransmission storms).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.harness.resilience import (
    ResilienceParams,
    _measure,
    build_resilience_scenario,
)
from repro.harness.runner import run_scenario
from repro.sip.message import BIT_IDENTICAL_ENGINES
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import (
    Scenario,
    ScenarioConfig,
    internal_external,
    parallel_fork,
    two_series,
)

#: Offered load for the steady-state scenarios, paper-equivalent cps.
BENCH_RATE = 10_000.0


def _peak_rss_kb() -> int:
    """Process peak resident set size in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _registry_snapshots(scenario: Scenario) -> Dict[str, object]:
    """Deep snapshots of every node's metrics, for cross-engine equality."""
    snaps: Dict[str, object] = {}
    for name, proxy in sorted(scenario.proxies.items()):
        snaps[name] = proxy.metrics.snapshot()
    for generator in scenario.generators:
        snaps[f"uac:{generator.name}"] = generator.metrics.snapshot()
    for server in scenario.servers:
        snaps[f"uas:{server.name}"] = server.metrics.snapshot()
    return snaps


# ---------------------------------------------------------------------------
# Scenario drivers
# ---------------------------------------------------------------------------
# Each builder returns (scenario, drive) where drive() runs the workload
# and returns its observables (a plain dict).  Only drive() is timed.

def _two_series(engine: str, quick: bool, profile: bool = False):
    duration, warmup = (6.0, 2.0) if quick else (20.0, 5.0)
    config = ScenarioConfig(seed=1, engine=engine,
                            observe="cpu" if profile else None)
    scenario = two_series(BENCH_RATE, policy="servartuka", config=config)

    def drive() -> dict:
        return run_scenario(scenario, duration=duration, warmup=warmup).as_dict()

    return scenario, drive


def _parallel_fig8(engine: str, quick: bool, profile: bool = False):
    duration, warmup = (6.0, 2.0) if quick else (20.0, 5.0)
    config = ScenarioConfig(seed=1, engine=engine,
                            observe="cpu" if profile else None)
    scenario = parallel_fork(BENCH_RATE, policy="servartuka", config=config)

    def drive() -> dict:
        return run_scenario(scenario, duration=duration, warmup=warmup).as_dict()

    return scenario, drive


def _resilience(engine: str, quick: bool, profile: bool = False):
    # The resilience campaign builds its own ScenarioConfig and does not
    # thread observability; its cells always run unprofiled.
    if quick:
        params = ResilienceParams(
            engine=engine, crash_times=(2.2, 4.2), run_for=6.0, drain=4.0
        )
    else:
        params = ResilienceParams(engine=engine)
    scenario = build_resilience_scenario("servartuka", params)

    def drive() -> dict:
        scenario.start()
        scenario.loop.run_until(params.run_for)
        scenario.stop_load()
        scenario.loop.run_until(params.run_for + params.drain)
        return _measure(scenario, "servartuka", params).as_dict()

    return scenario, drive


SCENARIOS: Dict[str, Callable] = {
    "two_series": _two_series,
    "parallel_fig8": _parallel_fig8,
    "resilience": _resilience,
}


def _calls_completed(scenario: Scenario) -> int:
    if scenario.servers:
        return sum(server.calls_completed for server in scenario.servers)
    return sum(g.calls_completed for g in scenario.generators)


def bench_one(
    name: str, engine: str, quick: bool = False, profile: bool = False
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run one (scenario, engine) cell; returns (measurements, identity).

    ``identity`` holds everything the differential contract covers
    (registries, observables, event count) and is compared -- never
    reported -- by :func:`run_engine_bench`.

    ``profile`` attaches the :mod:`repro.obs` CPU profiler to the
    scenario (where it threads observability) and adds each proxy's
    per-functionality share split to the measurements.  Off by default:
    the dormant-hook contract means an unprofiled cell runs the exact
    pre-observability code path, so headline numbers stay clean.
    """
    builder = SCENARIOS[name]
    scenario, drive = builder(engine, quick, profile)
    gc.collect()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    observables = drive()
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - wall_start

    calls = _calls_completed(scenario)
    events = scenario.loop.events_processed
    measurements = {
        "wall_s": round(wall_s, 3),
        "cpu_s": round(cpu_s, 3),
        "calls": calls,
        "calls_per_sec": round(calls / wall_s, 1) if wall_s > 0 else 0.0,
        "events": events,
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
    }
    observer = getattr(scenario, "observer", None)
    if observer is not None:
        measurements["profile"] = {
            node: {
                functionality: round(share, 4)
                for functionality, share in
                snap["functionality_shares"].items()
            }
            for node, snap in observer.snapshot()["profiles"].items()
        }
    identity = {
        "registries": _registry_snapshots(scenario),
        "observables": observables,
        "events": events,
    }
    return measurements, identity


def run_engine_bench(
    quick: bool = False,
    scenarios: Optional[Sequence[str]] = None,
    engines: Sequence[str] = BIT_IDENTICAL_ENGINES,
    jobs: int = 1,
    profile: bool = False,
) -> Dict[str, object]:
    """Benchmark every (scenario, engine) pair; returns the report dict.

    The report is what ``python -m repro bench --json`` serializes:
    per-engine measurements, the turbo-vs-reference speedup, and the
    per-scenario ``identical`` verdict of the
    differential cross-check.

    ``jobs > 1`` fans the (scenario, engine) cells across worker
    processes via the parallel executor.  Timing cells are never cached
    (wall-clock is not a function of the spec), and each worker times
    exactly one cell at a time, so per-cell numbers stay meaningful --
    though co-scheduled cells do contend for cores, so use serial mode
    for headline measurements.
    """
    chosen = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [name for name in chosen if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown bench scenarios: {unknown}; "
                       f"one of {sorted(SCENARIOS)}")
    report: Dict[str, object] = {
        "benchmark": "engine",
        "quick": quick,
        "engines": list(engines),
        "baseline": "reference",
        "notes": (
            "reference = wire-faithful per-hop serialization (what a real "
            "SIP stack pays); turbo = timer wheel + copy-on-write + parse "
            "interning + message/packet/job pooling, fused forwarding and "
            "relaxed GC (repo default).  Both produce bit-identical "
            "simulated results; peak_rss_kb is the process high-water "
            "mark at the end of the run."
        ),
        "scenarios": {},
    }
    if profile:
        report["profiled"] = True
    cells = _run_cells(chosen, engines, quick, jobs, profile)
    all_identical = True
    for name in chosen:
        per_engine: Dict[str, Dict[str, object]] = {}
        identities: Dict[str, Dict[str, object]] = {}
        for engine in engines:
            per_engine[engine], identities[engine] = cells[(name, engine)]
        first = identities[engines[0]]
        identical = all(identities[e] == first for e in engines)
        all_identical = all_identical and identical
        entry: Dict[str, object] = {
            "per_engine": per_engine,
            "identical": identical,
        }
        if "turbo" in per_engine and "reference" in per_engine:
            entry["speedup_turbo_vs_reference"] = _speedup(
                per_engine["reference"], per_engine["turbo"]
            )
        report["scenarios"][name] = entry
    report["identical"] = all_identical
    return report


def _run_cells(
    chosen: Sequence[str],
    engines: Sequence[str],
    quick: bool,
    jobs: int,
    profile: bool = False,
) -> Dict[Tuple[str, str], Tuple[dict, dict]]:
    """All (scenario, engine) cells, serial or fanned across workers."""
    if jobs <= 1:
        return {
            (name, engine): bench_one(name, engine, quick, profile)
            for name in chosen
            for engine in engines
        }
    # Imported lazily: parallel's "bench" job kind imports this module.
    from repro.harness.parallel import ExecutionContext, RunSpec, run_specs

    grid = [(name, engine) for name in chosen for engine in engines]
    specs = [
        RunSpec(
            kind="bench",
            payload={"scenario": name, "engine": engine, "quick": quick,
                     "profile": profile},
            label=f"bench/{name}/{engine}",
        )
        for name, engine in grid
    ]
    # Dedicated uncached context: the ambient one may have a cache, and
    # timing cells must never be served from (or written to) it.
    with ExecutionContext(jobs=jobs) as context:
        payloads = run_specs(specs, context=context)
    return {
        cell: (payload["measurements"], payload["identity"])
        for cell, payload in zip(grid, payloads)
    }


def _speedup(baseline: Dict[str, object], fast: Dict[str, object]) -> float:
    fast_wall = float(fast["wall_s"])
    if fast_wall <= 0:
        return 0.0
    return round(float(baseline["wall_s"]) / fast_wall, 2)


def render_report(report: Dict[str, object]) -> str:
    """Human-readable table of an engine-bench report."""
    from repro.harness.report import format_table

    blocks = []
    for name, entry in report["scenarios"].items():
        rows = []
        for engine, m in entry["per_engine"].items():
            rows.append([
                engine, m["wall_s"], m["calls"], m["calls_per_sec"],
                m["events_per_sec"], m["peak_rss_kb"],
            ])
        title = f"{name}: identical={entry['identical']}"
        if "speedup_turbo_vs_reference" in entry:
            title += (", turbo vs reference "
                      f"{entry['speedup_turbo_vs_reference']:.2f}x")
        blocks.append(format_table(
            ["engine", "wall_s", "calls", "calls/s", "events/s", "rss_kb"],
            rows,
            title=title,
        ))
        profile_rows = _profile_rows(entry["per_engine"])
        if profile_rows:
            blocks.append(format_table(
                ["engine", "node", "functionality", "share"],
                profile_rows,
                title=f"{name}: per-functionality CPU split (repro.obs)",
            ))
    return "\n\n".join(blocks)


def _profile_rows(per_engine: Dict[str, Dict[str, object]]):
    rows = []
    for engine, m in per_engine.items():
        for node, shares in sorted(m.get("profile", {}).items()):
            for functionality, share in sorted(shares.items()):
                rows.append([engine, node, functionality, share])
    return rows


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Hybrid fluid/DES bench: speedup over turbo AND deviation from turbo
# ---------------------------------------------------------------------------
#: Loads for the hybrid bench: each family's quiescent region under the
#: short battery timers (same calibration as
#: ``tests/engine/test_hybrid_differential.py``) -- the hybrid rung only
#: pays off where jumps actually fire, so this bench measures exactly
#: the long steady-state regime the rung exists for.
HYBRID_RATE = 6_000.0

HYBRID_SCENARIOS: Dict[str, Callable] = {
    "two_series": lambda config: two_series(
        HYBRID_RATE, policy="servartuka", config=config
    ),
    "internal_external": lambda config: internal_external(
        HYBRID_RATE, 0.6, policy="servartuka", config=config
    ),
    "parallel_fork": lambda config: parallel_fork(
        HYBRID_RATE, policy="servartuka", config=config
    ),
}


def _hybrid_bench_config(engine: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        scale=100.0,
        seed=seed,
        monitor_period=0.25,
        timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2),
        engine=engine,
        hybrid=(
            {"window": 4, "guard": 0.5, "min_jump": 1.0}
            if engine == "hybrid" else None
        ),
    )


def _myshare_fractions(scenario: Scenario) -> Dict[str, float]:
    """Final per-(proxy, path) myshare as a capped stateful-share
    fraction (inf == hold everything == 1.0)."""
    fractions: Dict[str, float] = {}
    for name, proxy in sorted(scenario.proxies.items()):
        paths = getattr(proxy.policy, "paths", None)
        if not paths:
            continue
        for key, stats in sorted(paths.items()):
            value = stats.myshare
            fractions[f"{name}/{key}"] = (
                1.0 if math.isinf(value) else min(max(value, 0.0), 1.0)
            )
    return fractions


def _outcome_counts(scenario: Scenario) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for g in scenario.generators:
        counts[f"uac/{g.name}/attempted"] = g.calls_attempted
        counts[f"uac/{g.name}/completed"] = g.calls_completed
        counts[f"uac/{g.name}/failed"] = g.calls_failed
    for s in scenario.servers:
        counts[f"uas/{s.name}/received"] = s.calls_received
        counts[f"uas/{s.name}/completed"] = s.calls_completed
    return counts


def run_hybrid_bench(quick: bool = False, seed: int = 1) -> Dict[str, object]:
    """Benchmark the hybrid rung against turbo on long steady runs.

    Unlike :func:`run_engine_bench` (whose rungs must be bit-identical),
    the hybrid rung is contracted by tolerance, so every scenario row
    reports BOTH columns of its contract: the wall-clock speedup over
    turbo AND the maximum deviation from turbo's simulated results
    (goodput %, myshare points, call-outcome counts %).  Arrival counts
    have no deviation column because the replay is RNG-exact; the
    report records ``attempted_exact`` instead.
    """
    duration, warmup = (40.0, 3.0) if quick else (120.0, 5.0)
    report: Dict[str, object] = {
        "benchmark": "hybrid",
        "quick": quick,
        "engines": ["turbo", "hybrid"],
        "baseline": "turbo",
        "duration_s": duration,
        "notes": (
            "hybrid = turbo message-layer fast paths + steady-state "
            "fast-forward (fluid-model clock jumps).  Contracted by "
            "tolerance, not bit-identity: the max_deviation columns "
            "are measured against the same-seed turbo run; speedup is "
            "within-run wall-clock turbo/hybrid, so it transfers "
            "across machines."
        ),
        "scenarios": {},
    }
    worst = {"goodput_pct": 0.0, "myshare_points": 0.0, "outcome_pct": 0.0}
    for name, build in HYBRID_SCENARIOS.items():
        cells: Dict[str, Dict[str, object]] = {}
        scenario_objects: Dict[str, Scenario] = {}
        results: Dict[str, object] = {}
        for engine in ("turbo", "hybrid"):
            scenario = build(_hybrid_bench_config(engine, seed))
            gc.collect()
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            result = run_scenario(scenario, duration=duration, warmup=warmup)
            cpu_s = time.process_time() - cpu_start
            wall_s = time.perf_counter() - wall_start
            calls = _calls_completed(scenario)
            cells[engine] = {
                "wall_s": round(wall_s, 3),
                "cpu_s": round(cpu_s, 3),
                "calls": calls,
                "calls_per_sec": (
                    round(calls / wall_s, 1) if wall_s > 0 else 0.0
                ),
                "events": scenario.loop.events_processed,
                "peak_rss_kb": _peak_rss_kb(),
            }
            scenario_objects[engine] = scenario
            results[engine] = result
        turbo_thr = results["turbo"].throughput_cps
        hybrid_thr = results["hybrid"].throughput_cps
        goodput_pct = (
            abs(hybrid_thr - turbo_thr) / turbo_thr * 100.0
            if turbo_thr > 0 else 0.0
        )
        shares_t = _myshare_fractions(scenario_objects["turbo"])
        shares_h = _myshare_fractions(scenario_objects["hybrid"])
        myshare_points = max(
            (
                abs(shares_h.get(key, 0.0) - value) * 100.0
                for key, value in shares_t.items()
            ),
            default=0.0,
        )
        counts_t = _outcome_counts(scenario_objects["turbo"])
        counts_h = _outcome_counts(scenario_objects["hybrid"])
        attempted_exact = all(
            counts_h[key] == counts_t[key]
            for key in counts_t if key.endswith("/attempted")
        )
        outcome_pct = max(
            (
                abs(counts_h[key] - value) / value * 100.0
                for key, value in counts_t.items()
                if value >= 50 and not key.endswith("/attempted")
            ),
            default=0.0,
        )
        summary = scenario_objects["hybrid"].hybrid_runtime.summary()
        entry = {
            "per_engine": cells,
            "speedup_hybrid_vs_turbo": _speedup(
                cells["turbo"], cells["hybrid"]
            ),
            "max_deviation": {
                "goodput_pct": round(goodput_pct, 3),
                "myshare_points": round(myshare_points, 3),
                "outcome_pct": round(outcome_pct, 3),
            },
            "attempted_exact": attempted_exact,
            "jumps": summary["jump_count"],
            "skipped_sim_seconds": summary["skipped_seconds"],
        }
        report["scenarios"][name] = entry
        worst["goodput_pct"] = max(worst["goodput_pct"], goodput_pct)
        worst["myshare_points"] = max(worst["myshare_points"], myshare_points)
        worst["outcome_pct"] = max(worst["outcome_pct"], outcome_pct)
    report["max_deviation"] = {
        key: round(value, 3) for key, value in worst.items()
    }
    return report


def render_hybrid_report(report: Dict[str, object]) -> str:
    """Human-readable table of a hybrid-bench report: one row per
    scenario with the speedup AND max-deviation columns side by side."""
    from repro.harness.report import format_table

    rows = []
    for name, entry in report["scenarios"].items():
        dev = entry["max_deviation"]
        rows.append([
            name,
            entry["per_engine"]["turbo"]["wall_s"],
            entry["per_engine"]["hybrid"]["wall_s"],
            f"{entry['speedup_hybrid_vs_turbo']:.2f}x",
            entry["jumps"],
            round(entry["skipped_sim_seconds"], 1),
            dev["goodput_pct"],
            dev["myshare_points"],
            dev["outcome_pct"],
        ])
    worst = report["max_deviation"]
    title = (
        f"hybrid vs turbo ({report['duration_s']:.0f}s runs): worst "
        f"deviation goodput {worst['goodput_pct']}% / myshare "
        f"{worst['myshare_points']}pt / outcomes {worst['outcome_pct']}%"
    )
    return format_table(
        ["scenario", "turbo_s", "hybrid_s", "speedup", "jumps",
         "skipped_s", "goodput_%", "myshare_pt", "outcome_%"],
        rows,
        title=title,
    )
