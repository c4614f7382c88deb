"""The CI bench-regression gate (benchmarks/check_bench_regression.py).

The gate compares the within-run turbo/reference ratio, never absolute
calls/sec, so it must (a) catch a slowdown injected into either engine,
(b) stay quiet when the whole machine is uniformly slower, and (c) stay
quiet on ordinary run-to-run noise within tolerance.
"""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
           / "benchmarks" / "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _report(scale: float = 1.0, slow_engine: str = None,
            slow_by: float = 0.2) -> dict:
    """Synthetic engine-bench report.

    ``scale`` multiplies every rung (a uniformly faster/slower host);
    ``slow_engine`` gets an extra ``slow_by`` fractional slowdown (the
    injected regression).
    """
    base = {"reference": 400.0, "turbo": 1400.0}
    scenarios = {}
    for name in ("two_series", "parallel_fig8"):
        per_engine = {}
        for engine, calls_per_sec in base.items():
            value = calls_per_sec * scale
            if engine == slow_engine:
                value *= 1.0 - slow_by
            per_engine[engine] = {"calls_per_sec": round(value, 1),
                                  "wall_s": 6.0, "calls": 8000}
        scenarios[name] = {"per_engine": per_engine, "identical": True}
    return {"benchmark": "engine", "scenarios": scenarios}


class TestCompare:
    def test_identical_reports_pass(self):
        assert check.compare(_report(), _report()) == []

    def test_uniformly_slower_host_passes(self):
        # Half-speed CI box: every ratio is unchanged, so no failure.
        assert check.compare(_report(), _report(scale=0.5)) == []

    @pytest.mark.parametrize("engine", ["reference", "turbo"])
    def test_20pct_single_rung_slowdown_fails(self, engine):
        failures = check.compare(_report(), _report(slow_engine=engine))
        assert failures, f"20% slowdown in {engine!r} was not caught"
        assert any(engine in failure for failure in failures)

    def test_noise_within_tolerance_passes(self):
        failures = check.compare(_report(), _report(slow_engine="turbo",
                                                    slow_by=0.10))
        assert failures == []

    def test_missing_rung_fails(self):
        candidate = _report()
        for name in candidate["scenarios"]:
            del candidate["scenarios"][name]["per_engine"]["turbo"]
        failures = check.compare(_report(), candidate)
        assert any("turbo" in failure and "missing" in failure
                   for failure in failures)

    def test_missing_scenario_fails(self):
        candidate = _report()
        del candidate["scenarios"]["parallel_fig8"]
        failures = check.compare(_report(), candidate)
        assert any("parallel_fig8" in failure for failure in failures)

    def test_new_rung_in_candidate_is_ignored(self):
        # A rung absent from the checked-in baseline (e.g. just added)
        # cannot regress; it only starts being gated once checked in.
        baseline = _report()
        for name in baseline["scenarios"]:
            del baseline["scenarios"][name]["per_engine"]["turbo"]
        assert check.compare(baseline, _report()) == []


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


class TestCheckHybrid:
    def test_contract_report_passes(self):
        assert check.check_hybrid(_hybrid_report()) == []

    def test_speedup_below_full_floor_fails(self):
        failures = check.check_hybrid(_hybrid_report(speedup=4.0))
        assert any("4.00x" in failure for failure in failures)

    def test_quick_report_uses_relaxed_floor(self):
        assert check.check_hybrid(_hybrid_report(speedup=4.0,
                                                 quick=True)) == []
        assert check.check_hybrid(_hybrid_report(speedup=1.5, quick=True))

    def test_explicit_floor_overrides_mode(self):
        assert check.check_hybrid(_hybrid_report(speedup=4.0), floor=3.0) == []

    def test_no_jumps_fails(self):
        failures = check.check_hybrid(_hybrid_report(jumps=0))
        assert any("no jumps" in failure for failure in failures)

    def test_inexact_arrivals_fail(self):
        failures = check.check_hybrid(_hybrid_report(attempted_exact=False))
        assert any("arrival replay" in failure for failure in failures)

    def test_deviation_over_contract_fails(self):
        report = _hybrid_report()
        report["max_deviation"]["goodput_pct"] = 1.3
        failures = check.check_hybrid(report)
        assert any("goodput_pct" in failure for failure in failures)

    def test_checked_in_hybrid_report_passes(self):
        checked_in = _SCRIPT.parent.parent / "BENCH_hybrid.json"
        report = json.loads(checked_in.read_text())
        assert check.check_hybrid(report) == []


def _sharded_report(overhead: float = 0.05, identical: bool = True,
                    cross_messages: int = 120,
                    **ladder_overrides) -> dict:
    ladder = {
        "1": {"wall_s": 2.1, "speedup_within_run": 1.0,
              "cross_messages": 0, "windows": 3,
              "barrier_stall_fraction": 0.0, "cpu_count": 4},
        "2": {"wall_s": 3.0, "speedup_within_run": 0.7,
              "cross_messages": cross_messages, "windows": 8000,
              "barrier_stall_fraction": 0.4, "cpu_count": 4},
        "4": {"skipped": "rung wider than host", "cpu_count": 2},
    }
    ladder.update(ladder_overrides)
    return {
        "benchmark": "sharded",
        "quick": True,
        "scenarios": {
            "mesh51": {
                "turbo_wall_s": 2.0,
                "shards1_overhead": overhead,
                "identical": identical,
                "ladder": ladder,
            },
        },
    }


class TestCheckSharded:
    def test_contract_report_passes(self):
        assert check.check_sharded(_sharded_report()) == []

    def test_overhead_over_limit_fails(self):
        failures = check.check_sharded(_sharded_report(overhead=0.2))
        assert any("overhead" in failure for failure in failures)

    def test_overhead_exactly_at_limit_passes(self):
        assert check.check_sharded(_sharded_report(overhead=0.10)) == []

    def test_explicit_limit_overrides_default(self):
        report = _sharded_report(overhead=0.2)
        assert check.check_sharded(report, overhead_limit=0.25) == []
        assert check.check_sharded(_sharded_report(overhead=0.05),
                                   overhead_limit=0.01)

    def test_divergent_results_fail(self):
        failures = check.check_sharded(_sharded_report(identical=False))
        assert any("diverged" in failure for failure in failures)

    def test_degenerate_partition_fails(self):
        failures = check.check_sharded(_sharded_report(cross_messages=0))
        assert any("cross-shard" in failure for failure in failures)

    def test_skipped_multi_shard_rung_is_not_judged(self):
        # The 4-shard rung above is a skipped row: no cross_messages
        # key, and that must not count as a degenerate partition.
        assert check.check_sharded(_sharded_report()) == []

    def test_missing_shards1_rung_fails(self):
        report = _sharded_report()
        del report["scenarios"]["mesh51"]["ladder"]["1"]
        failures = check.check_sharded(report)
        assert any("shards=1" in failure for failure in failures)

    def test_checked_in_sharded_report_passes(self):
        checked_in = _SCRIPT.parent.parent / "BENCH_sharded.json"
        report = json.loads(checked_in.read_text())
        assert check.check_sharded(report) == []


class TestMain:
    def _write(self, path, report):
        path.write_text(json.dumps(report))
        return str(path)

    def test_exit_zero_on_clean_candidate(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report())
        candidate = self._write(tmp_path / "cand.json", _report(scale=0.9))
        assert check.main(["--baseline", baseline,
                           "--candidate", candidate]) == 0
        assert "no bench regression" in capsys.readouterr().out

    def test_exit_one_on_injected_slowdown(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report())
        candidate = self._write(tmp_path / "cand.json",
                                _report(slow_engine="turbo"))
        assert check.main(["--baseline", baseline,
                           "--candidate", candidate]) == 1
        assert "BENCH REGRESSION" in capsys.readouterr().err

    def test_checked_in_report_passes_against_itself(self, tmp_path):
        checked_in = str(_SCRIPT.parent.parent / "BENCH_engine.json")
        assert check.main(["--baseline", checked_in,
                           "--candidate", checked_in]) == 0

    def test_hybrid_gate_wired_into_cli(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report())
        candidate = self._write(tmp_path / "cand.json", _report())
        good = self._write(tmp_path / "hybrid.json", _hybrid_report())
        assert check.main(["--baseline", baseline, "--candidate", candidate,
                           "--hybrid", good]) == 0
        assert "over turbo" in capsys.readouterr().out
        bad = self._write(tmp_path / "hybrid_bad.json",
                          _hybrid_report(speedup=3.0))
        assert check.main(["--baseline", baseline, "--candidate", candidate,
                           "--hybrid", bad]) == 1
        assert check.main(["--baseline", baseline, "--candidate", candidate,
                           "--hybrid", bad, "--hybrid-floor", "2.0"]) == 0

    def test_sharded_gate_wired_into_cli(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report())
        candidate = self._write(tmp_path / "cand.json", _report())
        good = self._write(tmp_path / "sharded.json", _sharded_report())
        assert check.main(["--baseline", baseline, "--candidate", candidate,
                           "--sharded", good]) == 0
        assert "shards=1 overhead" in capsys.readouterr().out
        bad = self._write(tmp_path / "sharded_bad.json",
                          _sharded_report(overhead=0.3))
        assert check.main(["--baseline", baseline, "--candidate", candidate,
                           "--sharded", bad]) == 1
        assert check.main(["--baseline", baseline, "--candidate", candidate,
                           "--sharded", bad, "--sharded-overhead",
                           "0.5"]) == 0
