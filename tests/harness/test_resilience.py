"""Tests for the resilience experiment (crash/loss fault campaign).

The full three-placement campaign runs once (module-scoped fixture via
``resilience_figure``); its rows carry every headline number.  The
single-placement runs below are much cheaper and probe custody shift
and determinism separately.
"""

import pytest

from repro.cli import main
from repro.harness import anchors, parallel
from repro.harness.figures import QUICK
from repro.harness.resilience import (
    PLACEMENTS,
    PlacementOutcome,
    ResilienceParams,
    build_resilience_scenario,
    resilience_config,
    resilience_figure,
    run_resilience,
)

COLUMNS = [
    "placement", "attempted", "completed", "lost", "shed_500",
    "recovered", "state_lost", "custody",
]


@pytest.fixture(scope="module")
def figure():
    return resilience_figure(QUICK)


@pytest.fixture(scope="module")
def rows_by_placement(figure):
    return {row[0]: dict(zip(COLUMNS, row)) for row in figure.rows}


class TestHeadlineOrdering:
    def test_figure_shape(self, figure):
        assert figure.figure_id == "resilience"
        assert figure.columns == COLUMNS
        assert [row[0] for row in figure.rows] == list(PLACEMENTS)

    def test_ordering_check_reads_ok(self, figure):
        assert not figure.comparisons
        (row,) = anchors.ledger({"resilience": figure})
        assert row[0] == "resilience.ordering" and row[-1] == "ok"

    def test_calls_lost_order_by_custody(self, rows_by_placement):
        """The experiment's claim: more state custody at the crashing
        node means more unrecoverable calls."""
        lost = {p: rows_by_placement[p]["lost"] for p in PLACEMENTS}
        assert lost["static"] > lost["servartuka"] > lost["stateless"]

    def test_state_destroyed_orders_the_same_way(self, rows_by_placement):
        state = {p: rows_by_placement[p]["state_lost"] for p in PLACEMENTS}
        assert state["static"] > state["servartuka"] > state["stateless"]
        assert state["stateless"] == 0  # nothing to destroy

    def test_custody_fractions(self, rows_by_placement):
        """Static holds everything, stateless nothing, SERvartuka the
        internal (terminating) share it cannot delegate."""
        assert rows_by_placement["static"]["custody"] == pytest.approx(1.0)
        assert rows_by_placement["stateless"]["custody"] == pytest.approx(0.0)
        assert 0.0 < rows_by_placement["servartuka"]["custody"] < 1.0

    def test_overload_shedding_stays_out_of_the_signal(self, rows_by_placement):
        """Queue tolerances absorb the post-restart retransmit herd:
        'lost' means timeouts, not 500-rejections."""
        for p in PLACEMENTS:
            row = rows_by_placement[p]
            assert row["shed_500"] <= 0.02 * row["attempted"]

    def test_most_calls_still_complete(self, rows_by_placement):
        for p in PLACEMENTS:
            row = rows_by_placement[p]
            assert row["completed"] >= 0.9 * row["attempted"]


def _servartuka_outcome(external_fraction):
    params = ResilienceParams(
        external_fraction=external_fraction,
        crash_times=(2.2, 4.2, 6.2),
        run_for=8.0,
    )
    return run_resilience(params, placements=("servartuka",))["servartuka"]


class TestCustodyShift:
    def test_internal_share_sets_exposure(self):
        """Shrinking the external fraction leaves S1 holding custody of
        more traffic, so crashes destroy more of its state."""
        mostly_internal = _servartuka_outcome(0.3)
        mostly_external = _servartuka_outcome(0.7)
        assert (
            mostly_internal.custody_fraction
            > mostly_external.custody_fraction
        )
        assert mostly_internal.state_lost > mostly_external.state_lost


class TestDeterminism:
    def test_identical_rerun_is_bit_identical(self):
        params = ResilienceParams(crash_times=(2.2, 3.7), run_for=5.0,
                                  drain=7.5)
        first = run_resilience(params, placements=("static",))
        second = run_resilience(params, placements=("static",))
        assert first["static"].as_dict() == second["static"].as_dict()
        assert first["static"].crashes == 2


class TestQualityOverrides:
    """``repro experiments resilience`` runs the engine and control the
    command names; the campaign keeps its own timers and queues."""

    def test_engine_and_control_reach_every_placement(self, monkeypatch):
        configs = []

        def job(payload):
            configs.append(payload["params"]["config"])
            return {"outcome": PlacementOutcome(payload["placement"])
                    .to_payload()}

        monkeypatch.setitem(parallel.JOBS, "resilience", job)
        main(["experiments", "resilience", "--engine", "reference",
              "--control", "rate", "--no-cache", "-j", "1"])
        assert [(c["engine"], c["control"]["policy"], c["timers"]["t1"],
                 c["max_queue_delay"]) for c in configs] == \
            [("reference", "rate", 0.1, 1.0)] * len(PLACEMENTS)

    def test_two_shards_refuse_the_fault_schedule_in_one_line(self, capsys):
        rc = main(["experiments", "resilience", "--engine", "sharded",
                   "--shards", "2", "--no-cache", "-j", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("repro experiments: error: ")
        assert "does not support fault schedules" in last


class TestParamsValidation:
    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            ResilienceParams(headroom=0.0)
        with pytest.raises(ValueError):
            ResilienceParams(load_factor=1.5)
        with pytest.raises(ValueError):
            ResilienceParams(external_fraction=1.0)
        with pytest.raises(ValueError):
            ResilienceParams(loss=1.0)

    def test_crash_times_must_fall_inside_run(self):
        with pytest.raises(ValueError):
            ResilienceParams(crash_times=(20.2,), run_for=14.0)

    def test_crash_times_off_the_monitor_grid(self):
        """Myshare custody is consumed at the start of each planning
        period, so boundary-aligned crashes sample an artificially
        empty custody window -- rejected outright."""
        with pytest.raises(ValueError):
            ResilienceParams(crash_times=(2.5,),
                             config=resilience_config(monitor_period=0.5))

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            build_resilience_scenario("anycast", ResilienceParams())

    def test_schedule_contents(self):
        params = ResilienceParams(crash_times=(2.2, 4.2), loss=0.1)
        events = params.schedule().events
        kinds = [e.kind for e in events]
        assert kinds.count("set_loss") == 2
        assert kinds.count("crash") == 2
        assert kinds.count("restart") == 2
