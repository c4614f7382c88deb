"""Hybrid rung benchmark: speedup over turbo AND deviation from turbo.

The hybrid engine's contract has two halves and this bench reports
both, side by side, in ``BENCH_hybrid.json``:

- **speedup** -- wall-clock turbo/hybrid on long steady-state runs
  (within-run ratio, so it transfers across machines).  The ISSUE
  contract floor is >= 5x turbo in full mode; quick mode uses a looser
  floor because shorter runs amortize fewer jumps.
- **max deviation** -- hybrid's simulated results vs the same-seed
  turbo run: goodput within 1%, per-node myshare within 2 points,
  call-outcome counts within 2%.  Arrival counts are RNG-exact
  (``attempted_exact``), so they get an equality flag, not a band.

The report lands in the repo root ``BENCH_hybrid.json``.
"""

import pathlib

from repro.harness.bench import (
    render_hybrid_report,
    run_hybrid_bench,
    write_report,
)
from repro.harness.figures import QUICK

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_hybrid_bench(quality):
    quick = quality is QUICK
    report = run_hybrid_bench(quick=quick)

    RESULTS_DIR.mkdir(exist_ok=True)
    write_report(report, str(REPO_ROOT / "BENCH_hybrid.json"))
    text = render_hybrid_report(report)
    (RESULTS_DIR / "hybrid.txt").write_text(text + "\n")
    print()
    print(text)

    # Tolerance contract -- hard in both modes.
    worst = report["max_deviation"]
    assert worst["goodput_pct"] <= 1.0, worst
    assert worst["myshare_points"] <= 2.0, worst
    assert worst["outcome_pct"] <= 2.0, worst
    for name, entry in report["scenarios"].items():
        assert entry["attempted_exact"], (
            f"{name}: arrival replay diverged from turbo"
        )
        # Anti-vacuity: a bench run where no jump fired measures
        # nothing -- the whole point is the fast-forwarded regime.
        assert entry["jumps"] >= 1, f"{name}: no jumps fired"
        assert entry["skipped_sim_seconds"] > 0, name

    # Speedup floor.  Full mode enforces the contract floor (>=5x
    # turbo on long steady-state runs); quick mode only sanity-checks
    # direction since short runs amortize fewer jumps and wall-clock
    # on shared CI boxes is noisy.
    floor = 2.0 if quick else 5.0
    for name, entry in report["scenarios"].items():
        assert entry["speedup_hybrid_vs_turbo"] >= floor, (
            f"{name}: hybrid only {entry['speedup_hybrid_vs_turbo']}x "
            f"over turbo (floor {floor}x)"
        )
