"""Parallel-executor benchmark: serial vs pooled vs warm-cache.

Measures the machinery added by ``repro.harness.parallel`` on a
Figure-5-style grid (two-in-series chain, static and SERvartuka
policies, one spec per load point):

- serial baseline (``jobs=1``, cache off),
- the worker ladder at 1/2/4/8 jobs, cold, with scaling efficiency
  ``serial / (wall * jobs)``,
- cold-vs-warm run-cache timing at ``jobs=4``,
- a cross-mode identity check: **every** mode must return the exact
  same result payloads, or the bench fails.

Numbers are honest for the host they ran on: ``host.cpu_count`` is in
the report, and on a single-core box the pool ladder *loses* to serial
(spawn start-up plus contention with no cores to spread over) -- the
speedup criterion only becomes meaningful where ``cpu_count >= jobs``.
The warm-cache criterion (<10% of cold serial) is host-independent.

Report lands in the repo root ``BENCH_parallel.json``.  Runnable both as a
pytest bench (``pytest benchmarks/bench_parallel.py``) and standalone
(``python benchmarks/bench_parallel.py [--quick]``).
"""

import json
import os
import pathlib
import platform
import sys
import tempfile
import time

from repro.harness.parallel import ExecutionContext, SpecTemplate, run_specs
from repro.harness.figures import QUICK
from repro.workloads.scenarios import ScenarioConfig

REPO_ROOT = pathlib.Path(__file__).parent.parent

JOB_LADDER = (1, 2, 4, 8)


def _grid(quick: bool):
    """Figure-5-style spec grid: 2-series chain, both policies."""
    if quick:
        scale, duration, warmup, points = 40.0, 3.0, 1.5, 4
    else:
        scale, duration, warmup, points = 10.0, 8.0, 3.0, 6
    config = ScenarioConfig(scale=scale, seed=1)
    loads = [7000.0 + 1000.0 * i for i in range(points)]
    specs = []
    for policy in ("static", "servartuka"):
        template = SpecTemplate(
            "n_series", config, label=f"2-series/{policy}", n=2, policy=policy
        )
        specs.extend(template.at(load, duration, warmup) for load in loads)
    meta = {
        "scenario": "n_series n=2",
        "policies": ["static", "servartuka"],
        "loads": loads,
        "scale": scale,
        "duration": duration,
        "warmup": warmup,
        "specs": len(specs),
    }
    return specs, meta


def _timed_run(specs, **context_kwargs):
    """One batch on its own context, so every call pays its own pool
    start-up and shutdown (both inside the timed region)."""
    start = time.perf_counter()
    with ExecutionContext(**context_kwargs) as context:
        results = run_specs(specs, context=context)
    wall = time.perf_counter() - start
    return results, wall, context


def run_parallel_bench(quick: bool = True) -> dict:
    specs, grid_meta = _grid(quick)

    # Serial baseline: inline execution, no cache, no pool.
    serial_results, serial_wall, _ = _timed_run(specs, jobs=1)

    # Worker ladder, cold every rung (fresh context, no cache).  Rungs
    # wider than the host are skipped with an explanatory row: running
    # an 8-wide pool on 2 cores records a misleading sub-1.0 "speedup"
    # that only measures contention, not the executor.
    cpu_count = os.cpu_count() or 1
    ladder = {}
    identical = True
    for jobs in JOB_LADDER:
        if jobs > cpu_count:
            ladder[str(jobs)] = {
                "skipped": (
                    f"rung wider than host ({jobs} jobs > "
                    f"{cpu_count} cpus); a pool cannot speed up "
                    f"beyond the cores it has"
                ),
                "cpu_count": cpu_count,
            }
            continue
        results, wall, _ = _timed_run(specs, jobs=jobs)
        identical = identical and results == serial_results
        speedup = serial_wall / wall if wall > 0 else 0.0
        ladder[str(jobs)] = {
            "wall_s": round(wall, 3),
            "speedup_vs_serial": round(speedup, 3),
            "efficiency": round(speedup / jobs, 3),
            "cpu_count": cpu_count,
        }

    # Run cache: cold fill then warm replay, both at jobs=4.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold_results, cold_wall, _ = _timed_run(
            specs, jobs=4, use_cache=True, cache_dir=cache_dir
        )
        warm_results, warm_wall, warm_context = _timed_run(
            specs, jobs=4, use_cache=True, cache_dir=cache_dir
        )
    identical = identical and cold_results == serial_results
    identical = identical and warm_results == serial_results

    return {
        "benchmark": "parallel",
        "quick": quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "grid": grid_meta,
        "serial_wall_s": round(serial_wall, 3),
        "ladder": ladder,
        "cache": {
            "cold_wall_s": round(cold_wall, 3),
            "warm_wall_s": round(warm_wall, 3),
            "warm_fraction_of_cold_serial": round(
                warm_wall / serial_wall, 4
            ) if serial_wall > 0 else 0.0,
            "warm_hit_rate": round(warm_context.stats.hit_rate(), 4),
        },
        "identical": identical,
        "notes": (
            "serial = inline jobs=1; ladder rungs spawn fresh pools with "
            "no cache; scaling efficiency = speedup/jobs.  Rungs wider "
            "than host.cpu_count are recorded as skipped instead of "
            "reporting contention as a sub-1.0 speedup; every measured "
            "entry stamps the cpu_count it ran on.  identical asserts "
            "every mode returned byte-identical result payloads."
        ),
    }


def write_parallel_report(report: dict) -> None:
    text = json.dumps(report, indent=2) + "\n"
    (REPO_ROOT / "BENCH_parallel.json").write_text(text)


def _check(report: dict) -> None:
    assert report["identical"], (
        "parallel/cached runs diverged from serial results"
    )
    assert report["cache"]["warm_hit_rate"] == 1.0, report["cache"]
    # Warm cache must be dramatically cheaper than re-simulating.
    assert report["cache"]["warm_fraction_of_cold_serial"] < 0.10, (
        report["cache"]
    )
    # Only judge pool scaling where the host can physically provide it.
    cpus = report["host"]["cpu_count"] or 1
    if cpus >= 4:
        assert report["ladder"]["4"]["speedup_vs_serial"] > 2.0, (
            report["ladder"]
        )


def test_parallel_bench(quality):
    report = run_parallel_bench(quick=quality is QUICK)
    write_parallel_report(report)
    print()
    print(json.dumps(report, indent=2))
    _check(report)


if __name__ == "__main__":
    quick = "--full" not in sys.argv
    report = run_parallel_bench(quick=quick)
    write_parallel_report(report)
    print(json.dumps(report, indent=2))
    _check(report)
