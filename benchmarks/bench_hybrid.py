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

The report lands in the repo root ``BENCH_hybrid.json`` and is gated by
:func:`repro.harness.bench.check_hybrid_report`, the one statement of
that contract.
"""

import pathlib

from repro.harness.bench import (
    check_hybrid_report,
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

    failures = check_hybrid_report(report)
    assert not failures, "\n".join(failures)
