"""Observability overhead gate.

Both gates compare different code within one run, on the turbo engine
(the regime the ``repro.obs`` contract is written for):

1. **Recorders never feed back.**  The observe-on run's metric
   registries and run observables must be bit-identical to observe-off
   (the same invariant tests/obs/test_observe_differential.py proves on
   small runs, re-checked here at bench load).
2. **Recorders are cheap.**  The observe-on overhead over observe-off
   is measured at two levels: ``cpu,telemetry`` (the repro.obs
   recorders proper -- dict work per job, gated at <= 25%) and ``all``
   (which additionally installs the message trace for spans; trace
   capture is a pre-existing :class:`~repro.sim.trace.MessageTrace`
   cost, so it is reported but not gated).

With ``observe=None`` every instrumentation point is a single
``is not None`` attribute test; what those dormant hooks cost shows up
as a parent/change difference of ``benchmarks/e2e``, not here, because
one run cannot time itself against code that has no hooks.

Report lands in the repo root ``BENCH_obs.json``.  Run it as a
script::

    python benchmarks/bench_obs.py [--full] [--repeats N]
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

from repro.harness.runner import run_scenario
from repro.workloads.scenarios import ScenarioConfig, two_series

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Offered load, paper-equivalent cps.
BENCH_RATE = 10_000.0

OBSERVE_ON_CEILING = 1.25


def _registry_snapshots(scenario) -> Dict[str, object]:
    """Deep snapshots of every node's metrics, for run-to-run equality."""
    nodes = {
        **scenario.proxies,
        **{f"uac:{g.name}": g for g in scenario.generators},
        **{f"uas:{s.name}": s for s in scenario.servers},
    }
    return {name: node.metrics.snapshot() for name, node in nodes.items()}


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


def run_obs_bench(quick: bool = True, repeats: int = 3) -> dict:
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
            "for bit."
        ),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="full-length windows (default: quick)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="min-of-N repeats per cell (default 3)")
    args = parser.parse_args(argv)
    report = run_obs_bench(quick=not args.full, repeats=args.repeats)
    write_obs_report(report)
    print(json.dumps(report, indent=2))
    _check(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
