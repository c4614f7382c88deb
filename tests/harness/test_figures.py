"""Tests for the figure-regeneration module (cheap paths only).

The full figure functions run under ``repro experiments``; here we
test the pure/cheap pieces: the LP check, Figure 3 (sub-second), the
analytic hint machinery and the FigureData container.
"""

import pytest

from repro.api import make_scenario, solve_topology
from repro.core.costmodel import CostModel
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
    "quick": {0.0: 10360.0, 0.5: 11246.954986760811,
              0.8: 11542.052148392799, 1.0: 10444.29317696063},
    "standard": {0.0: 10360.0, 0.2: 10697.447951645398,
                 0.4: 11057.618882332523, 0.6: 11442.887931034482,
                 0.8: 11542.052148392799, 1.0: 10444.29317696063},
    "full": {0.0: 10360.0, 0.1: 10526.020155294895,
             0.2: 10697.447951645398, 0.3: 10874.551971326166,
             0.4: 11057.618882332523, 0.5: 11246.95498676081,
             0.6: 11442.887931034482, 0.7: 11645.76859806251,
             0.8: 11542.052148392799, 0.9: 10965.767590539279,
             1.0: 10444.29317696063},
}
FIG8_STATIC_HINT = 12694.415048532455


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

    def test_fig8_static_hint(self, quality):
        topology = make_scenario("parallel_fork", rate=1000.0,
                                 config=quality.scenario_config()).topology
        front, upper, lower = (topology.node(name) for name in "FUL")
        # Static: a stateless front forking to two stateful exits.
        assert min(front.t_sl, upper.t_sf + lower.t_sf) == FIG8_STATIC_HINT


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
