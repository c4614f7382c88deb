"""Observability overhead gate.

The ``repro.obs`` contract has two halves and this bench measures both
on the turbo engine (the regime the contract is written for):

1. **Dormant hooks are free (<= 2%).**  With ``observe=None`` every
   instrumentation point is a single ``is not None`` attribute test.
   Against ``--baseline BENCH_engine.json`` (regenerated on the *same
   host* in the same CI job), the observe-off min-of-N CPU time must be
   within ``--tolerance`` (default 0.02) of the baseline's turbo-engine
   ``two_series`` cell.  Without a baseline the timings are reported
   but not gated.
2. **Recorders never feed back.**  The observe-on run's metric
   registries and run observables must be bit-identical to observe-off
   (the same invariant tests/obs/test_observe_differential.py proves on
   small runs, re-checked here at bench load).

The observe-on overhead is also measured at two levels:
``cpu,telemetry`` (the repro.obs recorders proper -- dict work per
job, gated at <= 25%) and ``all`` (which additionally installs the
message trace for spans; trace capture is a pre-existing
:class:`~repro.sim.trace.MessageTrace` cost, so it is reported but
not gated).

Report lands in the repo root ``BENCH_obs.json``.  Runnable standalone::

    python benchmarks/bench_obs.py [--full] [--repeats N]
        [--baseline BENCH_engine.json] [--tolerance 0.02]

or as a pytest bench (``pytest benchmarks/bench_obs.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import time
from typing import Dict, Optional

from repro.harness.bench import BENCH_RATE, _registry_snapshots
from repro.harness.figures import QUICK
from repro.harness.runner import run_scenario
from repro.workloads.scenarios import ScenarioConfig, two_series

REPO_ROOT = pathlib.Path(__file__).parent.parent

OBSERVE_ON_CEILING = 1.25


def _cell(observe: Optional[str], quick: bool, repeats: int) -> dict:
    """Min-of-N timing of the bench scenario; also returns the identity
    fingerprint (registries + observables) of the last run."""
    duration, warmup = (6.0, 2.0) if quick else (20.0, 5.0)
    walls, cpus = [], []
    identity: Dict[str, object] = {}
    calls = 0
    for _ in range(repeats):
        config = ScenarioConfig(seed=1, engine="turbo", observe=observe)
        scenario = two_series(BENCH_RATE, policy="servartuka", config=config)
        gc.collect()
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        result = run_scenario(scenario, duration=duration, warmup=warmup)
        cpus.append(time.process_time() - cpu_start)
        walls.append(time.perf_counter() - wall_start)
        calls = sum(server.calls_completed for server in scenario.servers)
        identity = {
            "registries": _registry_snapshots(scenario),
            "observables": result.as_dict(),
            "events": scenario.loop.events_processed,
        }
        if observe is not None:
            # Prove the run actually observed something.
            snapshot = scenario.observer.snapshot()
            assert any(
                profile["jobs"] > 0
                for profile in snapshot["profiles"].values()
            ), "observe-on run recorded no profiling data"
    return {
        "measurements": {
            "repeats": repeats,
            "wall_s_min": round(min(walls), 3),
            "cpu_s_min": round(min(cpus), 3),
            "wall_s_all": [round(w, 3) for w in walls],
            "cpu_s_all": [round(c, 3) for c in cpus],
            "calls": calls,
        },
        "identity": identity,
    }


def run_obs_bench(
    quick: bool = True,
    repeats: int = 3,
    baseline_path: Optional[str] = None,
    tolerance: float = 0.02,
) -> dict:
    off = _cell(None, quick, repeats)
    on = _cell("cpu,telemetry", quick, repeats)
    on_all = _cell("all", quick, repeats)

    off_cpu = off["measurements"]["cpu_s_min"]
    on_cpu = on["measurements"]["cpu_s_min"]
    on_all_cpu = on_all["measurements"]["cpu_s_min"]
    report: Dict[str, object] = {
        "benchmark": "obs",
        "quick": quick,
        "scenario": "two_series servartuka @ turbo engine",
        "rate_cps": BENCH_RATE,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "observe_off": off["measurements"],
        "observe_on": on["measurements"],
        "observe_all": on_all["measurements"],
        "observe_on_overhead": round(on_cpu / off_cpu, 4) if off_cpu else 0.0,
        "observe_all_overhead": (
            round(on_all_cpu / off_cpu, 4) if off_cpu else 0.0
        ),
        "identical": (
            on["identity"] == off["identity"]
            and on_all["identity"] == off["identity"]
        ),
        "notes": (
            "observe_off runs with every repro.obs hook dormant (the "
            "default); observe_on attaches the cpu+telemetry recorders "
            "(gated <= 1.25x); observe_all additionally installs the "
            "message trace for spans (pre-existing MessageTrace cost, "
            "reported ungated).  identical asserts every observed run's "
            "metric registries and run observables match observe-off bit "
            "for bit.  The dormant-hook gate compares observe_off "
            "cpu_s_min against a same-host BENCH_engine.json "
            "turbo/two_series cell."
        ),
    }

    if baseline_path:
        baseline = json.loads(pathlib.Path(baseline_path).read_text())
        cell = baseline["scenarios"]["two_series"]["per_engine"]["turbo"]
        ratio = off_cpu / cell["cpu_s"] if cell["cpu_s"] else 0.0
        report["baseline"] = {
            "path": str(baseline_path),
            "turbo_two_series_cpu_s": cell["cpu_s"],
            "observe_off_vs_baseline": round(ratio, 4),
            "tolerance": tolerance,
            "within_tolerance": ratio <= 1.0 + tolerance,
        }
    return report


def write_obs_report(report: dict) -> None:
    text = json.dumps(report, indent=2) + "\n"
    (REPO_ROOT / "BENCH_obs.json").write_text(text)


def _check(report: dict) -> None:
    assert report["identical"], (
        "observe-on run diverged from observe-off in compared metrics"
    )
    assert report["observe_on_overhead"] <= OBSERVE_ON_CEILING, (
        f"observe-on overhead {report['observe_on_overhead']:.3f}x exceeds "
        f"{OBSERVE_ON_CEILING}x"
    )
    baseline = report.get("baseline")
    if baseline is not None:
        assert baseline["within_tolerance"], (
            f"dormant-hook cost {baseline['observe_off_vs_baseline']:.3f}x "
            f"of baseline exceeds 1+{baseline['tolerance']}"
        )


def test_obs_bench(quality):
    report = run_obs_bench(quick=quality is QUICK, repeats=2)
    write_obs_report(report)
    print()
    print(json.dumps(report, indent=2))
    _check(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="full-length windows (default: quick)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="min-of-N repeats per cell (default 3)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="BENCH_engine.json from the same host to gate "
                             "the dormant-hook cost against")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed dormant-hook slowdown vs the baseline "
                             "(default 0.02 = 2%%)")
    args = parser.parse_args(argv)
    report = run_obs_bench(
        quick=not args.full,
        repeats=args.repeats,
        baseline_path=args.baseline,
        tolerance=args.tolerance,
    )
    write_obs_report(report)
    print(json.dumps(report, indent=2))
    _check(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
