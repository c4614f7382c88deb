"""Sanity checks for the measured Figure-3 breakdown panel."""

import pytest

from repro.core.costmodel import FIG3_TOTALS
from repro.harness.figures import FigureData, Quality, figure3_breakdown
from repro.obs.profile import STATE_FUNCTIONALITIES

CHEAP = Quality("test", scale=50.0, duration=2.5, warmup=1.0,
                sweep_points=2, fig7_fractions=[0.5])


@pytest.fixture(scope="module")
def breakdown():
    return figure3_breakdown(CHEAP)


def state_share(figure, mode):
    return sum(
        row[3] for row in figure.rows
        if row[0] == mode and row[1] in STATE_FUNCTIONALITIES
    )


class TestFigure3Breakdown:
    def test_returns_figure_data_for_every_mode(self, breakdown):
        assert isinstance(breakdown, FigureData)
        assert {row[0] for row in breakdown.rows} == set(FIG3_TOTALS)

    def test_shares_sum_to_one_per_mode(self, breakdown):
        for mode in FIG3_TOTALS:
            total = sum(row[3] for row in breakdown.rows if row[0] == mode)
            assert total == pytest.approx(1.0, abs=0.01), mode

    def test_stateful_spends_more_on_state_ops(self, breakdown):
        stateless = state_share(breakdown, "stateless")
        transaction = state_share(breakdown, "transaction_stateful")
        dialog = state_share(breakdown, "dialog_stateful")
        assert transaction > stateless
        assert dialog >= transaction * 0.9
        # Stateless still pays for the state *lookup* band (per the cost
        # model) but must not record create/destroy work.
        assert not [
            row for row in breakdown.rows
            if row[0] == "stateless"
            and row[1] in ("state-create", "state-destroy")
        ]

    def test_auth_only_in_authentication_mode(self, breakdown):
        modes_with_auth = {
            row[0] for row in breakdown.rows if row[1] == "auth" and row[3] > 0
        }
        assert modes_with_auth == {"authentication"}

    def test_comparisons_track_model(self, breakdown):
        assert breakdown.comparisons
        by_quantity = {c[0]: c for c in breakdown.comparisons}
        stateless = by_quantity["stateless state-ops events/call"]
        # measured / model ratio is the last column
        assert stateless[3] == pytest.approx(1.0, abs=0.1)
        transaction = by_quantity["transaction_stateful state-ops events/call"]
        assert 0.5 < transaction[3] <= 1.1
