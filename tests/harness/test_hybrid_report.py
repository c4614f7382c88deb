"""The hybrid rung's bench contract (harness.bench.check_hybrid_report).

One statement of the contract gates both a fresh report
(benchmarks/bench_hybrid.py) and the checked-in BENCH_hybrid.json: a
speedup floor that depends on the report's mode, at least one jump,
RNG-exact arrivals, and the recorded max deviation inside the
tolerance band.
"""

import json
import pathlib

from repro.harness.bench import check_hybrid_report

_CHECKED_IN = pathlib.Path(__file__).resolve().parents[2] / "BENCH_hybrid.json"


def _hybrid_report(speedup: float = 8.0, quick: bool = False,
                   **overrides) -> dict:
    entry = {
        "speedup_hybrid_vs_turbo": speedup,
        "jumps": 2,
        "attempted_exact": True,
        "skipped_sim_seconds": 100.0,
    }
    entry.update(overrides)
    return {
        "benchmark": "hybrid",
        "quick": quick,
        "scenarios": {"two_series": entry},
        "max_deviation": {"goodput_pct": 0.4, "myshare_points": 0.0,
                          "outcome_pct": 0.3},
    }


class TestCheckHybridReport:
    def test_contract_report_passes(self):
        assert check_hybrid_report(_hybrid_report()) == []

    def test_speedup_below_full_floor_fails(self):
        failures = check_hybrid_report(_hybrid_report(speedup=4.0))
        assert any("4.00x" in failure for failure in failures)

    def test_quick_report_uses_relaxed_floor(self):
        assert check_hybrid_report(_hybrid_report(speedup=4.0,
                                                  quick=True)) == []
        assert check_hybrid_report(_hybrid_report(speedup=1.5, quick=True))

    def test_no_jumps_fails(self):
        for overrides in ({"jumps": 0}, {"skipped_sim_seconds": 0.0}):
            failures = check_hybrid_report(_hybrid_report(**overrides))
            assert any("no jumps" in failure for failure in failures)

    def test_inexact_arrivals_fail(self):
        failures = check_hybrid_report(_hybrid_report(attempted_exact=False))
        assert any("arrival replay" in failure for failure in failures)

    def test_deviation_over_contract_fails(self):
        report = _hybrid_report()
        report["max_deviation"]["goodput_pct"] = 1.3
        failures = check_hybrid_report(report)
        assert any("goodput_pct" in failure for failure in failures)

    def test_checked_in_hybrid_report_passes(self):
        report = json.loads(_CHECKED_IN.read_text())
        assert check_hybrid_report(report) == []
