"""Regression pins for the calibrated cost model.

Every figure reproduction flows from these constants; if a change to
the component tables, message weights or calibration solver moves them,
this test makes the move explicit (update the pins *and* re-run the
benchmark suite, since all EXPERIMENTS.md numbers shift with them).
"""

import pytest

from repro.core.costmodel import CostModel, Feature, scenario_features
from repro.harness.anchors import PAPER_ANCHORS

#: The Figure 4 saturation points the model is calibrated against.
T_SF = PAPER_ANCHORS["fig4.t_sf"].paper
T_SL = PAPER_ANCHORS["fig4.t_sl"].paper


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestCalibrationConstants:
    def test_k_nanoseconds_per_event(self, model):
        assert model.k_seconds_per_event * 1e9 == pytest.approx(50.52, abs=0.2)

    def test_base_microseconds_per_call(self, model):
        assert model.base_seconds_per_call * 1e6 == pytest.approx(54.06, abs=0.3)


class TestCapacityPins:
    """Analytic capacities (cps) by mode and chain depth."""

    @pytest.mark.parametrize(
        "mode,depth,expected",
        [
            ("no_lookup", 0, 12694),
            ("stateless", 0, round(T_SL)),
            ("transaction_stateful", 0, round(T_SF)),
            ("dialog_stateful", 0, 9850),
            ("authentication", 0, 9040),
            ("no_lookup", 1, 10837),
            ("stateless", 1, 10537),
            ("transaction_stateful", 1, 8976),
            ("transaction_stateful", 2, 7919),
        ],
    )
    def test_capacity(self, model, mode, depth, expected):
        measured = model.capacity_cps(scenario_features(mode), depth)
        assert measured == pytest.approx(expected, rel=0.002)


class TestThresholdPins:
    def test_entry_node_no_lookup(self, model):
        t_sf, t_sl = model.node_thresholds({Feature.BASE}, depth=0.0)
        assert t_sf == pytest.approx(10638, rel=0.002)
        assert t_sl == pytest.approx(12694, rel=0.002)

    def test_exit_node_with_lookup_depth1(self, model):
        t_sf, t_sl = model.node_thresholds(
            {Feature.BASE, Feature.LOOKUP}, depth=1.0
        )
        assert t_sf == pytest.approx(8976, rel=0.002)
        assert t_sl == pytest.approx(10537, rel=0.002)


class TestLPOraclePins:
    """Figure 7's LP prediction, pinned.

    The LP is the oracle the optgap experiments (and cacheable run keys)
    depend on, so its value at the paper's 80/20 peak is pinned both
    against the paper number and exactly.
    """

    def test_fig7_peak_near_paper(self):
        from repro.core.lp import solve_fixed_routing
        from tests.core.hand_topologies import mix

        topo = mix(T_SF, T_SL, 0.8)
        solution = solve_fixed_routing(topo)
        # Paper: "the LP predicts a value of 11,960 cps" at the peak.
        assert solution.throughput == pytest.approx(
            PAPER_ANCHORS["fig7.lp"].paper, rel=0.02)

    def test_fig7_peak_exact(self):
        from repro.core.lp import solve_fixed_routing
        from tests.core.hand_topologies import mix

        topo = mix(T_SF, T_SL, 0.8)
        solution = solve_fixed_routing(topo)
        assert solution.throughput == pytest.approx(11855.97, abs=0.01)


class TestDerivedBoundPins:
    def test_two_series_lp_bound_with_depth(self, model):
        """The analytic bound SERvartuka chases in Figure 5."""
        from repro.harness.figures import _series_hints

        static, optimal = _series_hints(model, 2)
        assert static == pytest.approx(8976, rel=0.002)
        assert optimal == pytest.approx(10537, rel=0.005)

    def test_three_series_bounds(self, model):
        from repro.harness.figures import _series_hints

        static, optimal = _series_hints(model, 3)
        assert static == pytest.approx(7919, rel=0.005)
        assert optimal > static * 1.15
