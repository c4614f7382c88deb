"""Sharded-engine benchmark: the shard ladder vs serial turbo.

Runs one 51-proxy generated mesh and one flash-crowd chain at shards
1/2/4 and times each against the same run's serial turbo baseline,
reporting per rung:

- ``wall_s`` and ``speedup_within_run`` (turbo wall / rung wall -- a
  within-run ratio, hence machine-independent),
- ``cross_messages`` (SIP messages serialized across a shard cut) and
  ``windows`` (conservative time windows executed),
- ``barrier_stall_fraction`` (worker time blocked on window barriers:
  the honest parallelism tax of the process driver).

Every rung's merged result must be byte-identical to turbo, and the
``shards=1`` degenerate rung must stay within 10% of turbo wall-clock
(the contract ``check_bench_regression.py --sharded`` gates).  Both
gated walls are best-of-``GATED_REPEATS``.

Numbers are honest for the host they ran on: rungs wider than
``host.cpu_count`` run the *inline* driver (bit-identical single
process, ``barrier_stall_fraction`` 0.0) instead of timesharing a
process pool, so their ``speedup_within_run`` measures the window
protocol's serialization overhead, never a parallel speedup claim the
host cannot support.  Each rung stamps the driver and cpu_count it
ran with.

Report lands in the repo root ``BENCH_sharded.json``.  Runnable both as a
pytest bench (``pytest benchmarks/bench_sharded.py``) and standalone
(``python benchmarks/bench_sharded.py [--full]``).
"""

import json
import os
import pathlib
import platform
import sys
import time

from repro.harness.figures import QUICK
from repro.harness.parallel import _job_scenario
from repro.sim.shard import run_sharded_scenario

REPO_ROOT = pathlib.Path(__file__).parent.parent

SHARD_LADDER = (1, 2, 4)

#: The gated walls (turbo baseline and the shards=1 overhead rung) are
#: best-of-N so one scheduler hiccup cannot flake the 10% contract.
GATED_REPEATS = 3


def _scenarios(quick: bool):
    if quick:
        duration, warmup, drain = 4.0, 2.0, 0.5
    else:
        duration, warmup, drain = 10.0, 4.0, 1.0
    window = {"duration": duration, "warmup": warmup, "drain": drain}
    mesh = {
        "builder": "generated",
        "kwargs": {
            "rate": 250.0, "family": "mesh", "size": 51, "seed": 1,
            "heterogeneity": 0.3, "policy": "servartuka",
        },
        "config": {"scale": 50.0, "seed": 1, "monitor_period": 1.0},
        **window,
    }
    crowd = {
        "builder": "flash_crowd",
        "kwargs": {
            "rate": 150.0, "shape": "spike", "peak_factor": 3.0,
            "period": duration / 2.0, "n": 3, "policy": "servartuka",
        },
        "config": {"scale": 50.0, "seed": 1, "monitor_period": 1.0},
        **window,
    }
    return {"mesh51": mesh, "flash_crowd_spike": crowd}


def _with_engine(payload: dict, engine: str, shards: int = None) -> dict:
    clone = dict(payload, config=dict(payload["config"], engine=engine))
    if shards is not None:
        clone["config"]["shards"] = shards
    return clone


def _timed_turbo(payload: dict):
    best = None
    out = None
    for _ in range(GATED_REPEATS):
        start = time.perf_counter()
        out = _job_scenario(_with_engine(payload, "turbo"))
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return out, best


def _timed_sharded(payload: dict, shards: int, driver: str, repeats: int):
    sharded = _with_engine(payload, "sharded", shards=shards)
    previous = os.environ.get("REPRO_SHARD_DRIVER")
    os.environ["REPRO_SHARD_DRIVER"] = driver
    try:
        best, out, best_timing = None, None, None
        for _ in range(repeats):
            timing = {}
            start = time.perf_counter()
            out = run_sharded_scenario(sharded, timing=timing)
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best, best_timing = wall, timing
        return out, best, best_timing
    finally:
        if previous is None:
            os.environ.pop("REPRO_SHARD_DRIVER", None)
        else:
            os.environ["REPRO_SHARD_DRIVER"] = previous


def run_sharded_bench(quick: bool = True) -> dict:
    cpu_count = os.cpu_count() or 1
    scenarios = {}
    for name, payload in _scenarios(quick).items():
        turbo, turbo_wall = _timed_turbo(payload)
        ladder = {}
        identical = True
        shards1_overhead = None
        for shards in SHARD_LADDER:
            driver = "process" if 1 < shards <= cpu_count else "inline"
            repeats = GATED_REPEATS if shards == 1 else 1
            out, wall, timing = _timed_sharded(
                payload, shards, driver, repeats
            )
            identical = identical and out["result"] == turbo["result"]
            summary = out["extras"]["sharded"]
            ladder[str(shards)] = {
                "wall_s": round(wall, 3),
                "speedup_within_run": round(
                    turbo_wall / wall, 3
                ) if wall > 0 else 0.0,
                "cross_messages": summary["cross_messages"],
                "windows": summary["windows"],
                "barrier_stall_fraction": round(
                    timing.get("barrier_stall_fraction", 0.0), 4
                ),
                "driver": timing["driver"],
                "cpu_count": cpu_count,
            }
            if shards == 1:
                shards1_overhead = round(
                    wall / turbo_wall - 1.0, 4
                ) if turbo_wall > 0 else 0.0
        scenarios[name] = {
            "turbo_wall_s": round(turbo_wall, 3),
            "shards1_overhead": shards1_overhead,
            "identical": identical,
            "ladder": ladder,
        }
    return {
        "benchmark": "sharded",
        "quick": quick,
        "host": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "scenarios": scenarios,
        "notes": (
            "speedup_within_run = turbo wall / rung wall, both measured "
            "in the same run (gated walls best-of-"
            f"{GATED_REPEATS}); rungs wider than host.cpu_count run the "
            "bit-identical inline driver, so their ratio measures the "
            "window protocol's serialization overhead, not parallelism; "
            "barrier_stall_fraction is worker time blocked on window "
            "barriers (process driver only); identical asserts every "
            "rung's merged RunResult payload equals serial turbo's."
        ),
    }


def write_sharded_report(report: dict) -> None:
    text = json.dumps(report, indent=2) + "\n"
    (REPO_ROOT / "BENCH_sharded.json").write_text(text)


def _check(report: dict) -> None:
    for name, entry in report["scenarios"].items():
        assert entry["identical"], (
            f"{name}: sharded results diverged from serial turbo"
        )
        assert entry["shards1_overhead"] <= 0.10, (
            f"{name}: shards=1 overhead {entry['shards1_overhead']:.1%} "
            f"breaks the 10% contract"
        )
        for shards, rung in entry["ladder"].items():
            if int(shards) > 1:
                assert rung["cross_messages"] > 0, (
                    f"{name}/{shards}: degenerate partition moved no "
                    f"cross-shard messages"
                )


def test_sharded_bench(quality):
    report = run_sharded_bench(quick=quality is QUICK)
    write_sharded_report(report)
    print()
    print(json.dumps(report, indent=2))
    _check(report)


if __name__ == "__main__":
    quick = "--full" not in sys.argv
    report = run_sharded_bench(quick=quick)
    write_sharded_report(report)
    print(json.dumps(report, indent=2))
    _check(report)
