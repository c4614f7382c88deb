"""Wall-clock benchmark of the hybrid engine rung, and its contract.

The speed of everything else -- the ``turbo``/``reference`` pair, the
sharded rung, the worker pool and the run cache -- is measured by
``benchmarks/e2e`` (``run.py`` on a parent and a change, judged by
``compare.py`` against the bounds in ``BENCHMARK.json``).  The hybrid
rung is the one engine contracted by *tolerance* rather than
bit-identity, so its bench reports both halves of that contract within
one run: wall-clock speedup over turbo on long steady-state runs, and
the maximum deviation of its simulated results from the same-seed
turbo run.  :func:`check_hybrid_report` is the single statement of the
contract; ``benchmarks/bench_hybrid.py`` applies it to a fresh report
and ``tests/harness/test_hybrid_report.py`` to the checked-in
``BENCH_hybrid.json``.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from typing import Callable, Dict, List

from repro.harness.runner import run_scenario
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import (
    Scenario,
    ScenarioConfig,
    internal_external,
    parallel_fork,
    two_series,
)


def _peak_rss_kb() -> int:
    """Process peak resident set size in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _calls_completed(scenario: Scenario) -> int:
    if scenario.servers:
        return sum(server.calls_completed for server in scenario.servers)
    return sum(g.calls_completed for g in scenario.generators)


def _speedup(baseline: Dict[str, object], fast: Dict[str, object]) -> float:
    fast_wall = float(fast["wall_s"])
    if fast_wall <= 0:
        return 0.0
    return round(float(baseline["wall_s"]) / fast_wall, 2)


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


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

    The hybrid rung is contracted by tolerance, so every scenario row
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


#: Speedup floors by report mode: full reports carry the contract floor,
#: quick runs are shorter and amortize fewer jumps.
HYBRID_FLOOR_FULL = 5.0
HYBRID_FLOOR_QUICK = 2.0

#: Tolerance contract on the report's recorded max deviation.
HYBRID_DEVIATION_LIMITS = {
    "goodput_pct": 1.0,
    "myshare_points": 2.0,
    "outcome_pct": 2.0,
}


def check_hybrid_report(report: Dict[str, object]) -> List[str]:
    """Failure messages for a ``BENCH_hybrid.json``-shaped report
    (empty when the hybrid contract holds)."""
    floor = HYBRID_FLOOR_QUICK if report.get("quick") else HYBRID_FLOOR_FULL
    failures = []
    for scenario, entry in sorted(report.get("scenarios", {}).items()):
        speedup = float(entry["speedup_hybrid_vs_turbo"])
        if speedup < floor:
            failures.append(
                f"hybrid/{scenario}: only {speedup:.2f}x over turbo "
                f"(floor {floor:.1f}x)"
            )
        if entry.get("jumps", 0) < 1 \
                or entry.get("skipped_sim_seconds", 0) <= 0:
            failures.append(f"hybrid/{scenario}: no jumps fired -- "
                            f"the speedup measures nothing")
        if not entry.get("attempted_exact", False):
            failures.append(f"hybrid/{scenario}: arrival replay "
                            f"diverged from turbo")
    worst = report.get("max_deviation", {})
    for key, limit in HYBRID_DEVIATION_LIMITS.items():
        value = float(worst.get(key, 0.0))
        if value > limit:
            failures.append(
                f"hybrid: max {key} {value} exceeds the tolerance "
                f"contract ({limit})"
            )
    return failures


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
