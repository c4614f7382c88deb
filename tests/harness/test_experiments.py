"""Tests for the experiment orchestrator (cheap experiments only)."""

import json

import pytest

from repro.harness.experiments import EXPERIMENTS, ExperimentSuite
from repro.harness.figures import QUICK


@pytest.fixture(scope="module")
def suite_and_results():
    suite = ExperimentSuite(QUICK)
    results = suite.run(["lp", "fig3"])
    return suite, results


class TestRun:
    def test_registry_covers_every_figure(self):
        expected = {"fig3", "fig3-breakdown", "fig4", "lp", "fig5", "fig6",
                    "fig7", "fig8", "three-series", "resilience", "overload",
                    "optgap", "auth", "ablation-placement", "ablation-period",
                    "ablation-headroom", "ablation-via", "ablation-fork"}
        assert set(EXPERIMENTS) == expected

    def test_runs_selected(self, suite_and_results):
        suite, results = suite_and_results
        assert set(results) == {"lp", "fig3"}
        assert suite.timings["lp"] >= 0

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            ExperimentSuite(QUICK).run(["fig99"])

    def test_progress_callback(self):
        seen = []
        ExperimentSuite(QUICK).run(["lp"], progress=seen.append)
        assert seen == ["lp"]


class TestExport:
    def test_json_round_trip(self, suite_and_results, tmp_path):
        suite, results = suite_and_results
        path = tmp_path / "results.json"
        suite.write_json(results, str(path))
        payload = json.loads(path.read_text())
        assert payload["quality"] == "quick"
        assert "lp" in payload["experiments"]
        lp = payload["experiments"]["lp"]
        assert lp["comparisons"][0]["quantity"] == "two-series LP optimum"
        assert lp["comparisons"][0]["ratio"] == pytest.approx(1.0, abs=0.02)

    def test_markdown_structure(self, suite_and_results, tmp_path):
        suite, results = suite_and_results
        path = tmp_path / "EXP.md"
        suite.write_markdown(results, str(path))
        text = path.read_text()
        assert text.startswith("# Experiments")
        assert "| quantity | paper | measured | ratio |" in text
        assert "Section 4.1" in text

    def test_render_all(self, suite_and_results):
        suite, results = suite_and_results
        text = suite.render_all(results)
        assert "Figure 3" in text and "Section 4.1" in text
