"""Optimality-gap benchmark: Algorithm 2 vs the LP oracle at scale.

Runs the full ``optgap`` grid (``repro.harness.optgap``): generated
chain / tree / mesh topologies, each offered exactly its LP-optimal
load ``T*`` (pure-python simplex oracle) and simulated under the
distributed SERvartuka policy.  The report is the BENCH-style payload
from :func:`repro.harness.optgap.optgap_payload` plus host/timing
metadata, with hard criteria:

- every gap lies in ``[0, 1]`` (clamped by construction, re-asserted
  on the emitted rows),
- rows are sorted by (family, proxies, heterogeneity),
- the grid exercises a >= 50-proxy mesh end to end,
- every comparison row stays inside its soft budget
  (``measured/budget <= 1``).

Report lands in the repo root ``BENCH_optgap.json``.  Runnable both as a
pytest bench (``pytest benchmarks/bench_optgap.py``) and standalone
(``python benchmarks/bench_optgap.py [--full] [--jobs N]``).
"""

import json
import os
import pathlib
import platform
import sys
import time

from repro.harness.figures import FULL, QUICK
from repro.harness.optgap import optgap_figure, optgap_grid, optgap_payload
from repro.harness.parallel import execution

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: The turbo engine is bit-identical to the reference engine (see
#: tests/engine/test_differential.py) and the only rung that makes the
#: 50+ proxy cells affordable in a benchmark loop.
BENCH_ENGINE = "turbo"


def run_optgap_bench(quick: bool = True, jobs: int = 2) -> dict:
    quality = (QUICK if quick else FULL).with_overrides(engine=BENCH_ENGINE)
    start = time.perf_counter()
    with execution(jobs=jobs):
        figure = optgap_figure(quality)
    wall = time.perf_counter() - start
    report = {
        "benchmark": "optgap",
        "quick": quick,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "quality": quality.name,
        "engine": BENCH_ENGINE,
        "jobs": jobs,
        "cells": len(optgap_grid(quality)),
        "wall_s": round(wall, 3),
    }
    report.update(optgap_payload(figure))
    report["notes"] = (
        "gap = 1 - goodput/T* per generated topology; comparisons are "
        "soft budgets (measured/budget must stay <= 1), not paper "
        "values -- the paper stops at 2-3 node topologies."
    )
    return report


def write_optgap_report(report: dict) -> None:
    text = json.dumps(report, indent=2) + "\n"
    (REPO_ROOT / "BENCH_optgap.json").write_text(text)


def _check(report: dict) -> None:
    rows = report["rows"]
    assert rows, "optgap grid produced no rows"
    keys = [(row[0], row[1], row[2]) for row in rows]
    assert keys == sorted(keys), "rows not sorted by (family, proxies, het)"
    assert all(0.0 <= row[5] <= 1.0 for row in rows), rows
    assert any(row[1] >= 50 for row in rows), (
        "grid never exercised a >= 50-proxy topology"
    )
    for label, budget, measured, ratio in report["comparisons"]:
        assert ratio <= 1.0, (label, budget, measured)


def test_optgap_bench(quality):
    report = run_optgap_bench(quick=quality is QUICK)
    write_optgap_report(report)
    print()
    print(json.dumps(report, indent=2))
    _check(report)


if __name__ == "__main__":
    jobs = 2
    if "--jobs" in sys.argv:
        jobs = int(sys.argv[sys.argv.index("--jobs") + 1])
    report = run_optgap_bench(quick="--full" not in sys.argv, jobs=jobs)
    write_optgap_report(report)
    print(json.dumps(report, indent=2))
    _check(report)
