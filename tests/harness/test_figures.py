"""Tests for the figure-regeneration module (cheap paths only).

The full figure functions run under ``repro experiments``; here we
test the pure/cheap pieces: the LP check, Figure 3 (sub-second), the
analytic hint machinery and the FigureData container.
"""

import pytest

from repro.api import make_scenario, solve_topology
from repro.core.costmodel import CostModel
from repro.harness import figures
from repro.harness.figures import (
    FULL,
    FigureData,
    Quality,
    QUICK,
    STANDARD,
    _series_hints,
    figure3_profile,
    lp_optima,
)
from repro.harness.parallel import SpecTemplate
from repro.harness.runner import RunResult
from repro.harness.saturation import lp_bound
from repro.workloads.scenarios import chain_topology, mix_topology


class TestLpOptima:
    def test_reproduces_paper_numbers(self):
        figure = lp_optima(QUICK)
        assert figure.measured("two-series LP optimum") == pytest.approx(
            11247, abs=10
        )
        assert figure.measured("per-node stateful share") == pytest.approx(
            5623, abs=10
        )

    def test_free_and_fixed_agree(self):
        figure = lp_optima(QUICK)
        values = {row[0]: row[1] for row in figure.rows}
        assert values["free-routing LP"] == pytest.approx(
            values["fixed-routing LP"], rel=1e-4
        )


class TestFigure3:
    def test_model_column_exact(self):
        figure = figure3_profile(QUICK)
        for mode, paper, model, _measured in figure.rows:
            assert model == paper, mode

    def test_simulated_within_30_percent(self):
        figure = figure3_profile(QUICK)
        for row in figure.comparisons:
            assert 0.7 <= row[3] <= 1.3, row


def chain_thresholds(cost_model, n):
    """(t_sf, t_sl) per node of the n-chain's topology, paper cps."""
    topology = chain_topology(n, cost_model)
    return [(topology.node(name).t_sf, topology.node(name).t_sl)
            for name in topology.node_names]


class TestHints:
    def test_chain_thresholds_shrink_with_depth(self, cost_model):
        thresholds = chain_thresholds(cost_model, 3)
        t_sfs = [t for t, _ in thresholds]
        assert t_sfs == sorted(t_sfs, reverse=True)

    def test_first_node_matches_anchor_without_lookup(self, cost_model):
        thresholds = chain_thresholds(cost_model, 2)
        # Entry node has no lookup: capacity slightly above T_SF.
        assert thresholds[0][0] > 10360
        # Exit node at depth 1 with lookup: below T_SF.
        assert thresholds[1][0] < 10360

    def test_series_hints_ordering(self, cost_model):
        static, optimal = _series_hints(cost_model, 2)
        assert optimal > static

    def test_scale_folds_out(self):
        unscaled = chain_thresholds(CostModel(), 2)
        scaled = chain_thresholds(CostModel(scale=10.0), 2)
        for (a, b), (c, d) in zip(unscaled, scaled):
            assert a == pytest.approx(c, rel=1e-9)
            assert b == pytest.approx(d, rel=1e-9)

    def test_fig7_lp_bound_peaks_interior(self):
        model = CostModel()
        bounds = {f: solve_topology(mix_topology(f, model)).throughput
                  for f in (0.0, 0.5, 0.8, 1.0)}
        assert bounds[0.8] > bounds[0.0]
        assert bounds[0.8] > bounds[1.0]


#: The figures' hints per quality preset, pinned exactly: every ulp
#: moves the sweep loads, and with them the run-cache keys.
SERIES_HINTS = {
    "quick": {2: (8975.94561602458, 10537.254983935863),
              3: (7918.116992790765, 9216.425111481238)},
    "standard": {2: (8975.94561602458, 10537.254983935863),
                 3: (7918.116992790764, 9216.425111481236)},
    "full": {2: (8975.94561602458, 10537.254983935863),
             3: (7918.116992790764, 9216.425111481236)},
}
FIG7_BOUNDS = {
    "quick": {0.0: 10360.0, 0.5: 10981.74700124523,
              0.8: 11335.553906700885, 1.0: 10537.254983935863},
    "standard": {0.0: 10360.0, 0.2: 10600.054784528116,
                 0.4: 10851.498227462554, 0.6: 11115.160470177518,
                 0.8: 11335.553906700887, 1.0: 10537.254983935863},
    "full": {0.0: 10360.0, 0.1: 10478.652722680241,
             0.2: 10600.054784528116, 0.3: 10724.302864321015,
             0.4: 10851.498227462554, 0.5: 10981.747001245234,
             0.6: 11115.160470177518, 0.7: 11251.855393102627,
             0.8: 11335.553906700887, 0.9: 10977.52716238135,
             1.0: 10537.254983935863},
}
FIG8_BOUNDS = {"quick": 11682.885929072549, "standard": 11682.885929072547,
               "full": 11682.885929072547}


class _SweepStarted(Exception):
    """Raised by a stand-in sweep to hand back the loads it was given."""


@pytest.mark.parametrize("quality", [QUICK, STANDARD, FULL],
                         ids=lambda quality: quality.name)
class TestScenarioTopologyIsTheLPInput:
    """The hints come off the scenario's own topology, bit for bit."""

    def test_series_hints(self, quality):
        config = quality.scenario_config()
        for n, hints in SERIES_HINTS[quality.name].items():
            assert _series_hints(config.make_cost_model(), n) == hints
            topology = make_scenario("n_series", n=n, rate=1000.0,
                                     config=config).topology
            assert solve_topology(topology).throughput == hints[1]

    def test_fig7_bounds(self, quality):
        config = quality.scenario_config()
        bounds = FIG7_BOUNDS[quality.name]
        assert list(quality.fig7_fractions) == list(bounds)
        for fraction, bound in bounds.items():
            template = SpecTemplate("internal_external", config,
                                    external_fraction=fraction)
            assert lp_bound(template) == bound

    def test_one_chain_has_one_bound(self, quality):
        # Figure 7 at f = 1 is two proxies in series carrying one flow.
        config = quality.scenario_config()
        mix = lp_bound(SpecTemplate("internal_external", config,
                                    external_fraction=1.0))
        assert mix == lp_bound(SpecTemplate("n_series", config, n=2))

    def test_fig8_static_hint(self, quality, monkeypatch):
        """Figure 8's sweep hint is the LP bound of the fork's own topology."""
        bound = lp_bound(SpecTemplate("parallel_fork",
                                      quality.scenario_config()))
        assert bound == FIG8_BOUNDS[quality.name]

        def sweep_loads(template, loads, **_kwargs):
            raise _SweepStarted(loads)

        monkeypatch.setattr(figures, "sweep_loads", sweep_loads)
        with pytest.raises(_SweepStarted) as started:
            figures.figure8_parallel(quality)
        loads = started.value.args[0]
        assert (loads[0], loads[-1]) == (0.6 * bound, 1.2 * bound)


class TestOverloadRows:
    def test_composed_rows_print_their_runs_counts(self, monkeypatch):
        """Each composed row shows its own run's retransmissions and
        rejects; static/occupancy is the sweep's own 2x point."""
        def run_specs(specs):
            payloads = []
            for index, spec in enumerate(specs):
                result = RunResult(spec.label, 17000.0, 24.0)
                result.throughput_cps = 1000.0 + index
                result.retransmissions = 100 + index
                extras = {"uas_calls_completed": [3, 1]}
                if "occupancy" in spec.label:
                    extras["control"] = {
                        "proxies": {"P1": {"stats": {"rejected": 7 + index}}},
                        "generators": {
                            uac: {"attempted": 10, "completed": 5}
                            for uac in ("uac_u", "uac_l")}}
                payloads.append({"result": result.to_payload(),
                                 "extras": extras})
            return payloads

        monkeypatch.setattr(figures, "run_specs", run_specs)
        rows = figures.overload_comparative(QUICK).rows
        by_config = {(row[0], row[1]): row for row in rows}
        composed = [row for row in rows if "/" in row[0]]
        assert [row[0] for row in composed] == [
            "servartuka/none", "static/occupancy", "servartuka/occupancy"]
        # 25 sweep specs (5 controls x 5 loads), then the two composed.
        assert composed[0][5:] == [125, 0]
        assert composed[1][3:] == by_config[("occupancy", 2.0)][3:]
        assert composed[1][5:] == [118, 25]
        assert composed[2][5:] == [126, 33]


class TestQualityPresets:
    def test_scenario_config_uses_scale(self):
        config = QUICK.scenario_config()
        assert config.scale == QUICK.scale

    def test_overrides(self):
        config = QUICK.scenario_config(via_overhead=0.0)
        assert config.via_overhead == 0.0

    def test_custom_quality(self):
        quality = Quality("x", scale=5, duration=1, warmup=0.5,
                          sweep_points=3, fig7_fractions=[0.5])
        assert quality.fig7_fractions == [0.5]


class TestFigureData:
    def test_measured_and_rows(self):
        figure = FigureData("F", "t", ["a"], [[1]],
                            comparisons=[["x", 2.0, 3.0, 1.5]])
        assert figure.measured("x") == 3.0
        assert figure.rows == [[1]]
