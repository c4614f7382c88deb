"""Tests for the section 4.1 LP, including feasibility properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import series_optimal_throughput
from repro.core.lp import (
    FlowPathLP,
    LPSolution,
    StateDistributionLP,
    solve_fixed_routing,
    solve_free_routing,
)
from repro.core.topology import Topology, series_topology, two_series_topology
from repro.harness.anchors import PAPER_ANCHORS

from tests.core.hand_topologies import fork, mix

T_SF = PAPER_ANCHORS["fig4.t_sf"].paper
T_SL = PAPER_ANCHORS["fig4.t_sl"].paper


class TestPaperNumbers:
    """Section 4.1's worked example."""

    def test_two_series_optimum(self):
        solution = solve_free_routing(two_series_topology(T_SF, T_SL))
        # Paper: "a total throughput of 11,240 cps".
        assert solution.throughput == pytest.approx(11247, abs=5)

    def test_two_series_even_split(self):
        solution = solve_free_routing(two_series_topology(T_SF, T_SL))
        # Paper: "each server maintains 5,620 cps statefully".
        assert solution.stateful_rate["S1"] == pytest.approx(5623, abs=10)
        assert solution.stateful_rate["S2"] == pytest.approx(5623, abs=10)

    def test_optimum_beats_static(self):
        solution = solve_free_routing(two_series_topology(T_SF, T_SL))
        assert solution.throughput > T_SF  # static ceiling

    def test_both_servers_fully_utilized(self):
        solution = solve_free_routing(two_series_topology(T_SF, T_SL))
        for node in ("S1", "S2"):
            assert solution.utilization[node] == pytest.approx(1.0, abs=1e-6)

    def test_fixed_routing_agrees_on_series(self):
        """With a single path, routing freedom adds nothing."""
        topo = two_series_topology(T_SF, T_SL)
        free = solve_free_routing(topo)
        fixed = solve_fixed_routing(topo)
        assert fixed.throughput == pytest.approx(free.throughput, rel=1e-6)

    def test_closed_form_matches_lp(self):
        lp = solve_free_routing(two_series_topology(T_SF, T_SL))
        closed, _ = series_optimal_throughput([(T_SF, T_SL)] * 2)
        assert lp.throughput == pytest.approx(closed, rel=1e-6)


class TestStructure:
    def test_solution_verifies(self):
        solve_free_routing(two_series_topology(T_SF, T_SL)).verify()

    def test_state_coverage_on_series(self):
        """Everything admitted must be stateful somewhere (t_ASF_kz = 0)."""
        solution = solve_free_routing(series_topology([(T_SF, T_SL)] * 3))
        total_state = sum(solution.stateful_rate.values())
        assert total_state == pytest.approx(solution.throughput, rel=1e-6)

    def test_single_node(self):
        solution = solve_free_routing(series_topology([(T_SF, T_SL)]))
        assert solution.throughput == pytest.approx(T_SF, rel=1e-6)

    def test_edge_values_exposed(self):
        solution = solve_free_routing(two_series_topology(T_SF, T_SL))
        assert ("S1", "S2") in solution.edge_values
        parts = solution.edge_values[("S1", "S2")]
        assert set(parts) == {"fasf", "sf", "asf"}

    def test_requires_flows_for_fixed_routing(self):
        topo = Topology()
        topo.add_node("a", T_SF, T_SL)
        topo.mark_entry("a")
        topo.mark_exit("a")
        with pytest.raises(ValueError):
            FlowPathLP(topo)


class TestHeterogeneous:
    def test_fast_node_takes_more_state(self):
        topo = series_topology([(11000, 12300), (9000, 12300)])
        solution = solve_free_routing(topo)
        assert solution.stateful_rate["S1"] > solution.stateful_rate["S2"]

    def test_degenerate_state_placement(self):
        """When one node is far slower, nearly all state moves to the
        fast one (the slow node keeps only what its slack allows)."""
        topo = series_topology([(12000, 12300), (6200, 12300)])
        solution = solve_free_routing(topo)
        assert solution.stateful_rate["S1"] > 0.95 * solution.throughput
        assert solution.throughput >= 12000 - 1e-6
        assert solution.throughput <= 12300 + 1e-6


class TestInternalExternal:
    """Figure 7's LP predictions."""

    def test_80_20_mix_near_paper_prediction(self):
        topo = mix(T_SF, T_SL, external_fraction=0.8)
        solution = solve_fixed_routing(topo)
        # Paper: "the LP predicts a value of 11,960 cps" at the 80/20 mix.
        assert solution.throughput == pytest.approx(11960, rel=0.02)

    def test_fraction_zero_is_single_server(self):
        topo = mix(T_SF, T_SL, external_fraction=0.0)
        solution = solve_fixed_routing(topo)
        assert solution.throughput == pytest.approx(T_SF, rel=1e-6)

    def test_fraction_one_is_two_series(self):
        topo = mix(T_SF, T_SL, external_fraction=1.0)
        solution = solve_fixed_routing(topo)
        closed, _ = series_optimal_throughput([(T_SF, T_SL)] * 2)
        assert solution.throughput == pytest.approx(closed, rel=1e-6)

    def test_throughput_peaks_at_interior_fraction(self):
        """Paper: maximal throughput peaks around an 80/20 mix."""
        values = {}
        for fraction in (0.0, 0.4, 0.8, 1.0):
            topo = mix(T_SF, T_SL, fraction)
            values[fraction] = solve_fixed_routing(topo).throughput
        assert values[0.8] > values[0.0]
        assert values[0.8] > values[1.0]
        assert values[0.8] >= values[0.4]

    def test_internal_state_stays_at_s1(self):
        topo = mix(T_SF, T_SL, external_fraction=0.5)
        solution = solve_fixed_routing(topo)
        assert solution.flow_state_rates[("internal", "S1")] == pytest.approx(
            solution.flow_rates["internal"], rel=1e-6
        )


class TestParallelFork:
    def test_front_relinquishes_all_state(self):
        """Paper (section 6.2): the first server should relinquish all of
        its state to the two servers it forks to."""
        topo = fork((T_SF, T_SL), (T_SF, T_SL), (T_SF, T_SL))
        solution = solve_fixed_routing(topo)
        assert solution.stateful_rate["F"] == pytest.approx(0.0, abs=1.0)
        assert solution.throughput == pytest.approx(T_SL, rel=1e-6)

    def test_weak_forks_move_state_to_front(self):
        """Non-homogeneous case: a strong front should hold state."""
        topo = fork(
            (T_SF, T_SL), (3000, 3600), (3000, 3600)
        )
        solution = solve_fixed_routing(topo)
        assert solution.stateful_rate["F"] > 0
        solution.verify()

    def test_uneven_split(self):
        topo = fork(
            (T_SF, T_SL), (T_SF, T_SL), (T_SF, T_SL), upper_share=0.9
        )
        solution = solve_fixed_routing(topo)
        solution.verify()
        assert solution.flow_rates["upper"] == pytest.approx(
            0.9 * solution.throughput, rel=1e-6
        )


class TestHopPenalties:
    def test_penalty_reduces_throughput(self):
        topo = two_series_topology(T_SF, T_SL)
        plain = FlowPathLP(topo).solve()
        topo.hop_prices[("main", "S2")] = (1.2, 0.0)
        penalized = FlowPathLP(topo).solve()
        assert penalized.throughput < plain.throughput


class TestRelayPrice:
    """A call forwarded with its state still ahead (NASF) relays the
    downstream ``100 Trying``: the hop's relay price."""

    def _fork(self, relay):
        topo = fork((T_SF, T_SL), (T_SF, T_SL),
                                      (T_SF, T_SL))
        for flow in ("upper", "lower"):
            topo.hop_prices[(flow, "F")] = (1.0, relay)
        return topo

    def test_relay_lowers_the_fixed_routing_bound(self):
        plain = FlowPathLP(self._fork(0.0)).solve()
        priced = FlowPathLP(self._fork(1e-5)).solve()
        priced.verify()
        assert priced.throughput < plain.throughput
        # The front binds, and its utilization includes the relays.
        assert priced.utilization["F"] == pytest.approx(1.0)

    def test_relay_lowers_the_free_routing_bound(self):
        plain = StateDistributionLP(self._fork(0.0)).solve()
        priced = StateDistributionLP(self._fork(1e-5)).solve()
        priced.verify()
        assert priced.throughput < plain.throughput
        assert priced.utilization["F"] == pytest.approx(1.0)

    def test_state_held_at_the_hop_relays_nothing(self):
        # Every call is stateful by its exit, so an exit's relay price
        # multiplies a NASF rate that is zero at every feasible point.
        topo = two_series_topology(T_SF, T_SL)
        plain = FlowPathLP(topo).solve().throughput
        topo.hop_prices[("main", "S2")] = (1.0, 1e-5)
        assert FlowPathLP(topo).solve().throughput == pytest.approx(
            plain, rel=1e-9
        )


class TestFeasibilityProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        capacities=st.lists(
            st.tuples(
                st.floats(min_value=1000, max_value=15000),
                st.floats(min_value=1.01, max_value=1.5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_series_solutions_always_feasible(self, capacities):
        pairs = [(t_sf, t_sf * gap) for t_sf, gap in capacities]
        topo = series_topology(pairs)
        for solution in (solve_free_routing(topo), solve_fixed_routing(topo)):
            solution.verify()
            # Throughput bounded by the weakest stateless node and at
            # least the best static configuration.
            assert solution.throughput <= min(p[1] for p in pairs) * (1 + 1e-6)
            best_static = max(
                min(p[0] if i == j else p[1] for i, p in enumerate(pairs))
                for j in range(len(pairs))
            )
            assert solution.throughput >= best_static * (1 - 1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        front_sf=st.floats(min_value=2000, max_value=15000),
        fork_sf=st.floats(min_value=2000, max_value=15000),
        share=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_fork_solutions_always_feasible(self, front_sf, fork_sf, share):
        topo = fork(
            (front_sf, front_sf * 1.2),
            (fork_sf, fork_sf * 1.2),
            (fork_sf, fork_sf * 1.2),
            upper_share=share,
        )
        solution = solve_fixed_routing(topo)
        solution.verify()
        assert solution.throughput > 0
