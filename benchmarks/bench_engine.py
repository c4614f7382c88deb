"""Engine benchmark: turbo vs reference wall-clock.

Unlike the figure benches (which reproduce paper results), this bench
measures the *simulator itself*: how fast each engine mode chews
through the same workloads, with the differential contract re-verified
on the way.  The machine-readable report lands in the repo root
``BENCH_engine.json`` (same schema as ``python -m repro bench --json``).
"""

import json
import pathlib

from repro.harness.bench import render_report, run_engine_bench, write_report
from repro.harness.figures import QUICK

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_engine_bench(quality):
    report = run_engine_bench(quick=quality is QUICK)

    RESULTS_DIR.mkdir(exist_ok=True)
    write_report(report, str(REPO_ROOT / "BENCH_engine.json"))
    text = render_report(report)
    (RESULTS_DIR / "engine.txt").write_text(text + "\n")
    print()
    print(text)

    # The differential contract is a hard requirement; the speedup
    # assertion is deliberately loose (wall-clock on shared CI boxes is
    # noisy) -- the measured number is in the JSON for tracking.
    assert report["identical"], "engines disagree on simulated results"
    for name, entry in report["scenarios"].items():
        assert entry["speedup_turbo_vs_reference"] > 1.2, (
            f"{name}: turbo engine not meaningfully faster than reference: "
            f"{entry['speedup_turbo_vs_reference']}x"
        )
