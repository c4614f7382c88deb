"""Tests for the Figure-3-calibrated cost model."""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import (
    CALL_MESSAGE_KINDS,
    COMPONENTS,
    CostModel,
    FIG3_FEATURE_EVENTS,
    FIG3_TOTALS,
    Feature,
    MessageKind,
    PAPER_T_SF,
    PAPER_T_SL,
    component_events,
    scenario_features,
    total_events,
)


class TestFig3Profile:
    """The feature table must reproduce Figure 3's bar totals exactly."""

    @pytest.mark.parametrize("mode,total", sorted(FIG3_TOTALS.items()))
    def test_scenario_totals_match_paper(self, mode, total):
        assert total_events(scenario_features(mode)) == total

    def test_components_are_known(self):
        for feature, table in FIG3_FEATURE_EVENTS.items():
            for component in table:
                assert component in COMPONENTS, (feature, component)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            scenario_features("turbo")

    def test_lookup_band_is_thin(self):
        """Paper: lookup shows as a 'thin band' (~36 events)."""
        delta = component_events(scenario_features("stateless"))
        base = component_events(scenario_features("no_lookup"))
        lookup_events = delta.get("lookup", 0) - base.get("lookup", 0)
        assert 20 <= lookup_events <= 60

    def test_state_costs_appear_with_state(self):
        assert "state" not in component_events(scenario_features("stateless"))
        assert component_events(scenario_features("transaction_stateful"))["state"] > 0

    def test_component_monotonicity(self):
        """Paper: granular costs increase monotonically with service."""
        order = ["no_lookup", "stateless", "transaction_stateful",
                 "dialog_stateful", "authentication"]
        previous = {}
        for mode in order:
            current = component_events(scenario_features(mode))
            for component, events in previous.items():
                assert current.get(component, 0) >= events, (mode, component)
            previous = current


class TestCalibration:
    def test_anchors_exact(self, cost_model):
        assert cost_model.capacity_cps(scenario_features("stateless")) == pytest.approx(
            PAPER_T_SL, rel=1e-9
        )
        assert cost_model.capacity_cps(
            scenario_features("transaction_stateful")
        ) == pytest.approx(PAPER_T_SF, rel=1e-9)

    def test_positive_costs(self, cost_model):
        assert cost_model.k_seconds_per_event > 0
        assert cost_model.base_seconds_per_call > 0

    def test_stateful_gap_smaller_than_profile_ratio(self, cost_model):
        """The kernel baseline compresses the 1.72x profile gap to 1.19x."""
        sl = cost_model.per_call_cost(scenario_features("stateless"))
        sf = cost_model.per_call_cost(scenario_features("transaction_stateful"))
        assert 1.15 < sf / sl < 1.25

    def test_capacity_ordering_matches_modes(self, cost_model):
        caps = [
            cost_model.capacity_cps(scenario_features(mode))
            for mode in ("no_lookup", "stateless", "transaction_stateful",
                         "dialog_stateful", "authentication")
        ]
        assert caps == sorted(caps, reverse=True)

    def test_invalid_anchor_order_rejected(self):
        with pytest.raises(ValueError):
            CostModel(t_sf=13000, t_sl=12300)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            CostModel(scale=0)

    def test_custom_anchors(self):
        model = CostModel(t_sf=5000, t_sl=6000)
        assert model.capacity_cps(
            scenario_features("transaction_stateful")
        ) == pytest.approx(5000, rel=1e-9)


class TestScale:
    @pytest.mark.parametrize("scale", [2.0, 10.0, 50.0])
    def test_scale_divides_capacity(self, scale):
        base = CostModel()
        scaled = CostModel(scale=scale)
        features = scenario_features("transaction_stateful")
        assert scaled.capacity_cps(features) == pytest.approx(
            base.capacity_cps(features) / scale, rel=1e-9
        )

    def test_scale_multiplies_message_cost(self):
        base, _ = CostModel().message_cost(MessageKind.INVITE,
                                           scenario_features("stateless"))
        scaled, _ = CostModel(scale=10).message_cost(
            MessageKind.INVITE, scenario_features("stateless")
        )
        assert scaled == pytest.approx(10 * base, rel=1e-9)


class TestViaOverhead:
    def test_depth_reduces_capacity(self, cost_model):
        features = scenario_features("transaction_stateful")
        caps = [cost_model.capacity_cps(features, depth=d) for d in (0, 1, 2)]
        assert caps[0] > caps[1] > caps[2]

    def test_zero_overhead_removes_depth_effect(self):
        model = CostModel(via_overhead=0.0)
        features = scenario_features("stateless")
        assert model.capacity_cps(features, 0) == pytest.approx(
            model.capacity_cps(features, 3), rel=1e-9
        )

    def test_negative_extra_vias_rejected(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.message_cost(MessageKind.INVITE, frozenset(), extra_vias=-1)

    def test_fractional_depth_interpolates(self, cost_model):
        features = scenario_features("stateless")
        mid = cost_model.per_call_cost(features, depth=0.5)
        assert cost_model.per_call_cost(features, 0) < mid
        assert mid < cost_model.per_call_cost(features, 1)


class TestMessageCosts:
    def test_per_call_is_sum_of_messages(self, cost_model):
        features = scenario_features("transaction_stateful")
        total = 0.0
        for kind in CALL_MESSAGE_KINDS:
            extra = cost_model._message_extra_vias(kind, 0.0)
            cost, _ = cost_model.message_cost(kind, features, extra)
            total += cost
        assert total == pytest.approx(cost_model.per_call_cost(features), rel=1e-12)

    def test_components_sum_to_total(self, cost_model):
        cost, components = cost_model.message_cost(
            MessageKind.INVITE, scenario_features("authentication")
        )
        assert sum(components.values()) == pytest.approx(cost, rel=1e-12)

    def test_invite_is_most_expensive_call_message(self, cost_model):
        features = scenario_features("transaction_stateful")
        costs = {
            kind: cost_model.message_cost(kind, features)[0]
            for kind in CALL_MESSAGE_KINDS
        }
        assert max(costs, key=costs.get) == MessageKind.INVITE

    def test_absorb_cheaper_than_full_invite(self, cost_model):
        features = scenario_features("transaction_stateful")
        invite, _ = cost_model.message_cost(MessageKind.INVITE, features)
        absorb, _ = cost_model.message_cost(MessageKind.ABSORB_RETRANSMIT, features)
        assert absorb < invite / 2

    def test_control_is_cheap(self, cost_model):
        control, _ = cost_model.message_cost(MessageKind.CONTROL)
        invite, _ = cost_model.message_cost(
            MessageKind.INVITE, scenario_features("stateless")
        )
        assert control < invite / 5

    def test_auth_only_charged_with_auth_feature(self, cost_model):
        without, _ = cost_model.message_cost(
            MessageKind.INVITE, scenario_features("dialog_stateful")
        )
        with_auth, comps = cost_model.message_cost(
            MessageKind.INVITE, scenario_features("authentication")
        )
        assert with_auth > without
        assert comps.get("authentication", 0) > 0


class TestThresholds:
    def test_thresholds_strip_and_add_state(self, cost_model):
        t_sf, t_sl = cost_model.node_thresholds({Feature.BASE, Feature.LOOKUP})
        assert t_sf == pytest.approx(PAPER_T_SF, rel=1e-9)
        assert t_sl == pytest.approx(PAPER_T_SL, rel=1e-9)

    def test_thresholds_idempotent_wrt_state_features(self, cost_model):
        plain = cost_model.node_thresholds({Feature.BASE, Feature.LOOKUP})
        with_state = cost_model.node_thresholds(
            {Feature.BASE, Feature.LOOKUP, Feature.TXN_STATE}
        )
        assert plain == with_state

    def test_utilization_linear(self, cost_model):
        half = cost_model.utilization(PAPER_T_SF / 2, 0)
        assert half == pytest.approx(0.5, rel=1e-9)
        mixed = cost_model.utilization(PAPER_T_SF / 2, PAPER_T_SL / 2)
        assert mixed == pytest.approx(1.0, rel=1e-9)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        depth=st.floats(min_value=0.0, max_value=4.0),
        mode=st.sampled_from(sorted(FIG3_TOTALS)),
    )
    def test_capacity_positive_and_decreasing_in_depth(self, depth, mode):
        model = CostModel()
        features = scenario_features(mode)
        cap = model.capacity_cps(features, depth)
        assert cap > 0
        assert cap <= model.capacity_cps(features, 0.0) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        t_sf=st.floats(min_value=1000, max_value=20000),
        gap=st.floats(min_value=1.05, max_value=1.6),
    )
    def test_calibration_reproduces_arbitrary_anchors(self, t_sf, gap):
        t_sl = t_sf * gap
        model = CostModel(t_sf=t_sf, t_sl=t_sl)
        assert model.capacity_cps(
            scenario_features("transaction_stateful")
        ) == pytest.approx(t_sf, rel=1e-6)
        assert model.capacity_cps(scenario_features("stateless")) == pytest.approx(
            t_sl, rel=1e-6
        )

    def test_gap_beyond_profile_ratio_rejected(self):
        """A saturation gap above the 707/412 profile ratio would need a
        negative kernel baseline; the model must refuse to calibrate."""
        with pytest.raises(ValueError):
            CostModel(t_sf=5000, t_sl=10000)


#: Every feature set repro.servers.proxy can pass: its _FS_* constants
#: and everything _features_for builds.
PROXY_FEATURE_SETS = [frozenset(), frozenset({Feature.AUTH})] + [
    frozenset({Feature.BASE, *lookup, *auth, *state})
    for lookup in ((), (Feature.LOOKUP,))
    for auth in ((), (Feature.AUTH,))
    for state in ((), (Feature.TXN_STATE,),
                  (Feature.TXN_STATE, Feature.DIALOG_STATE))
]
COST_GRID = [
    (kind, features, extra_vias)
    for kind in MessageKind
    for features in PROXY_FEATURE_SETS
    for extra_vias in (0, 1, 2, 4, 0.5)
]


class TestCostTable:
    """message_cost() is computed once per argument tuple, on every rung."""

    ARGS = dict(t_sf=9000.0, t_sl=11000.0, scale=7.0, via_overhead=0.3)

    def test_table_entry_equals_a_fresh_computation(self):
        table, fresh = CostModel(**self.ARGS), CostModel(**self.ARGS)
        for key in COST_GRID:
            first = table.message_cost(*key)
            again = table.message_cost(*key)
            assert again[0] == first[0] and again[1] is first[1]  # one entry
            assert fresh.message_cost(*key) == first  # a miss: computed anew

    def test_reference_run_leaves_the_shared_breakdowns_untouched(self):
        from repro.workloads.scenarios import ScenarioConfig, two_series

        config = ScenarioConfig(scale=100.0, seed=3, engine="reference")
        scenario = two_series(11_000, policy="servartuka", config=config)
        scenario.start()
        scenario.loop.run_until(1.5)
        models = {id(p.cost_model): p.cost_model for p in scenario.proxies.values()}
        used = 0
        for model in models.values():
            fresh = config.make_cost_model()
            for key, entry in model._memo.items():
                assert entry == fresh.message_cost(*key), key
                used += 1
        assert used >= len(CALL_MESSAGE_KINDS)

    def test_table_is_capped_under_fractional_extra_vias(self):
        model = CostModel()
        features = scenario_features("transaction_stateful")
        for step in range(3000):
            extra = step / 1000.0
            cost, _ = model.message_cost(MessageKind.INVITE, features, extra)
            assert cost == CostModel().message_cost(
                MessageKind.INVITE, features, extra)[0]
        assert len(model._memo) == 2048

    def test_negative_extra_vias_still_rejected_every_time(self):
        model = CostModel()
        for _ in range(2):
            with pytest.raises(ValueError):
                model.message_cost(MessageKind.INVITE, frozenset(), -1)

    def test_memoize_knob_is_gone(self):
        with pytest.raises(TypeError):
            CostModel(memoize=True)


# What a process reports under one hash seed: the SHA-256 of the whole
# cost table (every kind x feature subset x 0-3 extra Vias, breakdown
# key order included) and one run's payload + extras.  The run is the
# smallest found that diverged before the loops below were ordered: a
# single authenticating proxy, all five features on every INVITE.
_HASH_SEED_PROBE = """
import hashlib, itertools, json
from repro.core.costmodel import CostModel, Feature, MessageKind
from repro.harness.parallel import _job_scenario, scenario_spec

model = CostModel()
table = [
    [kind.value, [f.value for f in subset], vias,
     list(model.message_cost(kind, frozenset(subset), float(vias)))]
    for kind in MessageKind
    for size in range(len(Feature) + 1)
    for subset in itertools.combinations(Feature, size)
    for vias in range(4)
]
run = _job_scenario(scenario_spec(
    "single_proxy", rate=6000.0, mode="authentication",
    config={"scale": 100.0, "seed": 1},
    duration=1.0, warmup=0.25).payload)
print(json.dumps({
    "cost_table": hashlib.sha256(json.dumps(table).encode()).hexdigest(),
    "run": run,
}))
"""


class TestHashSeedIndependence:
    """A frozenset of ``Feature`` members iterates in an order that
    follows PYTHONHASHSEED (an Enum hashes by its name string), and a
    parent, its spawned workers and two hosts sharing a run cache do not
    share a seed: no float may depend on that order."""

    @pytest.fixture(scope="class")
    def reports(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        reports = []
        for seed in ("0", "11", "14"):
            done = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=dict(os.environ, PYTHONHASHSEED=seed,
                         PYTHONPATH=os.path.abspath(src)),
                stdout=subprocess.PIPE, text=True, check=True, timeout=120,
            )
            reports.append(json.loads(done.stdout))
        return reports

    def test_cost_table_is_one_table(self, reports):
        assert len({report["cost_table"] for report in reports}) == 1

    def test_run_payload_and_extras_are_one_run(self, reports):
        first = json.dumps(reports[0]["run"])
        assert reports[0]["run"]["result"]["throughput_cps"] > 0
        assert all(json.dumps(r["run"]) == first for r in reports[1:])
