"""Unit tests for the shard partitioner and window schedule."""

import math

import pytest

from repro.sim.network import DEFAULT_ONE_WAY_LATENCY
from repro.sim.shard import (
    ShardPlan,
    _expand_program,
    partition_scenario,
)
from repro.workloads.scenarios import ScenarioConfig, generated, n_series


def _scenario(engine="turbo", **kwargs):
    return n_series(
        3, 40.0, policy="servartuka",
        config=ScenarioConfig(engine=engine, scale=100.0, seed=1),
        **kwargs,
    )


class TestPartition:
    def test_covers_every_node_exactly_once(self):
        scenario = _scenario()
        plan = partition_scenario(scenario, 2)
        assert set(plan.owner) == set(scenario.network.node_names())
        assert set(plan.owner.values()) == {0, 1}

    def test_every_shard_owns_at_least_one_node(self):
        scenario = _scenario()
        for shards in (1, 2, 3, 4):
            plan = partition_scenario(scenario, shards)
            assert set(plan.owner.values()) == set(range(shards))

    def test_contiguous_in_hint_order(self):
        """Ownership is monotone along the linearized node sequence, so
        a flow path never bounces back into an earlier shard."""
        scenario = _scenario()
        plan = partition_scenario(scenario, 3)
        shard_seq = [plan.owner[name] for name in plan.order]
        assert shard_seq == sorted(shard_seq)

    def test_proxy_weight_balances_core_nodes(self):
        """A homogeneous 6-proxy chain splits its proxies 3/3."""
        scenario = generated(
            100.0, family="chain", size=6, seed=1, heterogeneity=0.0,
            policy="servartuka",
            config=ScenarioConfig(engine="turbo", scale=100.0, seed=1),
        )
        plan = partition_scenario(scenario, 2)
        per_shard = [0, 0]
        for name in scenario.proxies:
            per_shard[plan.owner[name]] += 1
        assert per_shard == [3, 3]

    def test_more_shards_than_nodes_raises(self):
        scenario = _scenario()
        nodes = len(scenario.network.node_names())
        with pytest.raises(ValueError, match="cannot split"):
            partition_scenario(scenario, nodes + 1)
        with pytest.raises(ValueError, match="shards"):
            partition_scenario(scenario, 0)

    def test_lookahead_is_min_cut_latency(self):
        scenario = _scenario()
        assert partition_scenario(scenario, 1).lookahead == math.inf
        plan = partition_scenario(scenario, 2)
        assert plan.lookahead == DEFAULT_ONE_WAY_LATENCY

    def test_explicit_cross_link_tightens_lookahead(self):
        scenario = _scenario()
        plan = partition_scenario(scenario, 2)
        # Find one cut pair and give it a faster private link.
        cut = next(
            (a, b)
            for a in plan.order for b in plan.order
            if plan.owner[a] != plan.owner[b]
        )
        scenario.network.set_link(cut[0], cut[1], latency=1e-4)
        tightened = partition_scenario(scenario, 2)
        assert tightened.lookahead == 1e-4

    def test_plan_is_deterministic(self):
        a = partition_scenario(_scenario(), 3)
        b = partition_scenario(_scenario(), 3)
        assert a.owner == b.owner
        assert a.order == b.order
        assert a.lookahead == b.lookahead

    def test_owned_by_preserves_order(self):
        plan = ShardPlan(
            2, {"a": 0, "b": 1, "c": 0}, ["a", "b", "c"], 0.1
        )
        assert plan.owned_by(0) == ["a", "c"]
        assert plan.owned_by(1) == ["b"]


class TestWindowSchedule:
    def test_infinite_lookahead_one_window_per_phase(self):
        ops = list(_expand_program(
            [("call", "start"), ("advance", 1.0), ("advance", 3.0)],
            math.inf,
        ))
        assert ops == [
            ("call", "start"), ("window", 1.0), ("window", 3.0),
        ]

    def test_windows_never_exceed_lookahead(self):
        ops = list(_expand_program([("advance", 1.0)], 0.3))
        times = [t for kind, t in ops if kind == "window"]
        previous = 0.0
        for t in times:
            assert t - previous <= 0.3 + 1e-12
            previous = t
        assert times[-1] == 1.0  # clipped exactly at the phase boundary

    def test_zero_length_advance_still_emits_one_window(self):
        """Matches the serial runner's run_until(now) semantics: events
        scheduled exactly at the current time execute before the mark."""
        ops = list(_expand_program(
            [("advance", 0.0), ("call", "snapshot")], math.inf
        ))
        assert ops == [("window", 0.0), ("call", "snapshot")]

    def test_non_monotone_program_raises(self):
        with pytest.raises(ValueError, match="monotonically"):
            list(_expand_program(
                [("advance", 2.0), ("advance", 1.0)], math.inf
            ))

    def test_marks_interleave_with_windows_in_program_order(self):
        ops = list(_expand_program(
            [
                ("call", "start"),
                ("advance", 0.5),
                ("call", "snapshot"),
                ("advance", 1.0),
                ("call", "stop"),
            ],
            0.5,
        ))
        kinds = [op[0] for op in ops]
        assert kinds == ["call", "window", "call", "window", "call"]
