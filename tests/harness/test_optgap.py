"""Optimality-gap experiment regressions.

Runs a small fixed cell set (one instance per family, turbo engine,
aggressive scale) end to end and asserts:

- the summary table matches a golden snapshot (``--update-golden`` to
  rebless) -- this pins the LP oracle values *and* the simulated
  Algorithm 2 goodput per cell,
- rows come back sorted by (family, proxies, heterogeneity) and every
  gap is clamped into ``[0, 1]``,
- the grid/config helpers honor their contracts (mesh flagship always
  present, scale floor, monitor period) without any simulation.
"""

import pytest

from repro.harness.figures import FULL, QUICK, STANDARD, FigureData, Quality
from repro.harness.optgap import (
    OPTGAP_MIN_SCALE,
    OPTGAP_MONITOR_PERIOD,
    optgap_config,
    optgap_grid,
    optgap_rows,
    render_summary,
)

#: Deterministic mini-grid: one cell per family, sizes small enough to
#: simulate in seconds.  turbo is bit-identical to reference (see
#: tests/engine/test_differential.py) so the snapshot is engine-stable.
CELLS = [
    {"family": "chain", "size": 4, "heterogeneity": 0.0},
    {"family": "tree", "size": 7, "heterogeneity": 0.0},
    {"family": "mesh", "size": 12, "heterogeneity": 0.3},
]

TEST_QUALITY = Quality(
    name="optgap-test",
    scale=60.0,
    duration=4.0,
    warmup=2.0,
    sweep_points=4,
    fig7_fractions=(0.8,),
    seed=1,
    config_overrides={"engine": "turbo"},
)


@pytest.fixture(scope="module")
def rows():
    return optgap_rows(TEST_QUALITY, cells=CELLS)


def _figure(rows):
    return FigureData(
        figure_id="optgap",
        title="optgap mini-grid",
        columns=["family", "proxies", "heterogeneity",
                 "lp cps", "algorithm2 cps", "gap"],
        rows=rows,
    )


def test_summary_matches_golden(rows, golden):
    golden("optgap_summary.txt", render_summary(_figure(rows)))


def test_rows_sorted_and_gaps_bounded(rows):
    assert len(rows) == len(CELLS)
    keys = [(row[0], row[1], row[2]) for row in rows]
    assert keys == sorted(keys), "rows must be monotone in (family, n, het)"
    for family, n_proxies, het, lp_cps, achieved, gap in rows:
        assert lp_cps > 0.0
        assert achieved > 0.0
        assert 0.0 <= gap <= 1.0
        # gap is exactly the clamped shortfall, not an independent value.
        assert gap == pytest.approx(
            min(1.0, max(0.0, 1.0 - achieved / lp_cps)), abs=1e-12
        )


def test_rows_deterministic(rows):
    """A second pass over the same cells reproduces every number (the
    oracle is pure; identical specs replay from the executor's
    in-memory memo, so this also asserts memo transparency)."""
    assert optgap_rows(TEST_QUALITY, cells=CELLS) == rows


class TestGrid:
    @pytest.mark.parametrize("quality", [QUICK, STANDARD, FULL],
                             ids=lambda q: q.name)
    def test_flagship_mesh_present(self, quality):
        cells = optgap_grid(quality)
        assert any(
            cell["family"] == "mesh" and cell["size"] == 51
            for cell in cells
        )

    def test_quick_grid_is_two_by_two(self):
        cells = optgap_grid(QUICK)
        assert len(cells) == 12  # 3 families x 2 sizes x 2 het levels
        assert {cell["family"] for cell in cells} == {"chain", "tree", "mesh"}
        assert {cell["heterogeneity"] for cell in cells} == {0.0, 0.3}

    def test_full_grid_adds_sizes_and_heterogeneity(self):
        cells = optgap_grid(FULL)
        assert len(cells) > len(optgap_grid(QUICK))
        assert {cell["heterogeneity"] for cell in cells} == {0.0, 0.3, 0.6}


class TestConfig:
    def test_scale_floor(self):
        config = optgap_config(QUICK)
        assert config.scale == max(QUICK.scale, OPTGAP_MIN_SCALE)

    def test_full_scale_floored_up(self):
        assert optgap_config(FULL).scale == OPTGAP_MIN_SCALE

    def test_monitor_period_pinned(self):
        assert optgap_config(QUICK).monitor_period == OPTGAP_MONITOR_PERIOD

    def test_overrides_win(self):
        assert optgap_config(QUICK, scale=80.0).scale == 80.0
