"""Tests for the server-graph model."""

import pytest

from repro.core.costmodel import CostModel
from repro.core.topology import (
    Flow,
    NodeSpec,
    Topology,
    priced_topology,
    series_topology,
    two_series_topology,
)
from repro.workloads.scenarios import fork_topology, mix_topology


class TestNodeSpec:
    def test_alpha_beta(self):
        spec = NodeSpec("s", 10000, 12500)
        assert spec.alpha == pytest.approx(1e-4)
        assert spec.beta == pytest.approx(8e-5)

    def test_rejects_stateful_faster_than_stateless(self):
        with pytest.raises(ValueError):
            NodeSpec("s", 13000, 12000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NodeSpec("s", 0, 100)


class TestConstruction:
    def test_add_node_and_edge(self):
        topo = Topology()
        topo.add_node("a", 100, 120)
        topo.add_node("b", 100, 120)
        topo.add_edge("a", "b")
        assert topo.downstream("a") == ["b"]
        assert topo.upstream("b") == ["a"]

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        with pytest.raises(ValueError):
            topo.add_node("a", 1, 2)

    def test_reserved_names_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_node("__source__", 1, 2)

    def test_edge_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        with pytest.raises(KeyError):
            topo.add_edge("a", "ghost")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        with pytest.raises(ValueError):
            topo.add_edge("a", "a")

    def test_duplicate_edge_ignored(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        topo.add_node("b", 1, 2)
        topo.add_edge("a", "b")
        topo.add_edge("a", "b")
        assert len(topo.edges) == 1


class TestFlows:
    def test_flow_marks_entry_exit(self):
        topo = two_series_topology(100, 120)
        assert topo.entries == ["S1"]
        assert topo.exits == ["S2"]

    def test_flow_requires_existing_edges(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        topo.add_node("b", 1, 2)
        with pytest.raises(ValueError):
            topo.add_flow("f", ["a", "b"])

    def test_flow_share_normalization(self):
        topo = mix_topology(0.8, CostModel())
        shares = topo.normalized_flow_shares()
        assert shares["external"] == pytest.approx(0.8)
        assert shares["internal"] == pytest.approx(0.2)

    def test_empty_flow_path_rejected(self):
        with pytest.raises(ValueError):
            Flow("f", [])

    def test_normalization_requires_positive_total(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        topo.add_flow("f", ["a"], share=0.0)
        with pytest.raises(ValueError):
            topo.normalized_flow_shares()


class TestValidation:
    def test_valid_series(self):
        series_topology([(100, 120)] * 3).validate()

    def test_no_entries_rejected(self):
        topo = Topology()
        topo.add_node("a", 1, 2)
        with pytest.raises(ValueError):
            topo.validate()

    def test_cycle_rejected(self):
        topo = Topology()
        for name in "abc":
            topo.add_node(name, 1, 2)
        topo.add_edge("a", "b")
        topo.add_edge("b", "c")
        topo.add_edge("c", "a")
        topo.mark_entry("a")
        topo.mark_exit("c")
        with pytest.raises(ValueError):
            topo.validate()


class TestBuilders:
    def test_series_topology_shape(self):
        topo = series_topology([(100, 120), (90, 110), (80, 100)])
        assert topo.node_names == ["S1", "S2", "S3"]
        assert topo.edges == [("S1", "S2"), ("S2", "S3")]
        assert topo.flows[0].path == ("S1", "S2", "S3")

    def test_series_custom_names(self):
        topo = series_topology([(1, 2)], names=["edge"])
        assert topo.node_names == ["edge"]

    def test_series_name_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_topology([(1, 2)], names=["a", "b"])

    def test_internal_external_degenerate_fractions(self):
        """Figure 7's sweep ends keep both flows, one at share 0."""
        for fraction in (0.0, 1.0):
            topo = mix_topology(fraction, CostModel())
            assert topo.normalized_flow_shares() == {
                "external": fraction, "internal": 1.0 - fraction,
            }
            assert topo.edges == [("S1", "S2")]

    def test_internal_external_bad_fraction(self):
        with pytest.raises(ValueError):
            mix_topology(1.5, CostModel())

    def test_parallel_fork_shape(self):
        topo = fork_topology(0.5, CostModel())
        assert sorted(topo.node_names) == ["F", "L", "U"]
        assert set(topo.edges) == {("F", "U"), ("F", "L")}
        assert topo.normalized_flow_shares() == {
            "upper": pytest.approx(0.5), "lower": pytest.approx(0.5),
        }
        with pytest.raises(ValueError):
            fork_topology(1.0, CostModel())

    def test_parallel_fork_uneven_share(self):
        topo = fork_topology(0.7, CostModel())
        assert topo.normalized_flow_shares()["upper"] == pytest.approx(0.7)


class TestPricedTopology:
    """The one price rule the paper factories and topogen share."""

    def _priced(self, flows):
        names = list(dict.fromkeys(n for _f, path, _s in flows for n in path))
        return priced_topology(names, flows, CostModel(),
                               dict.fromkeys(names, 1.0))

    def test_hand_built_hops_are_equation_8(self):
        topo = two_series_topology(100, 120)
        assert topo.hop_price("main", "S1") == (1.0, 0.0)

    def test_home_hops_pay_no_penalty(self):
        topo = self._priced([("main", ["P1", "P2", "P3"], 1.0)])
        assert [topo.hop_price("main", n)[0] for n in topo.node_names] == [
            1.0, 1.0, 1.0]

    def test_relay_grows_with_depth_and_stops_at_the_exit(self):
        topo = self._priced([("main", ["P1", "P2", "P3"], 1.0)])
        relays = [topo.hop_price("main", n)[1] for n in topo.node_names]
        assert 0.0 < relays[0] < relays[1]
        assert relays[2] == 0.0

    def test_a_flow_passing_a_delivering_node_skips_its_lookup(self):
        topo = self._priced([("external", ["S1", "S2"], 0.8),
                             ("internal", ["S1"], 0.2)])
        assert topo.hop_price("internal", "S1")[0] == 1.0
        assert topo.hop_price("external", "S1")[0] < 1.0
        assert topo.edges == [("S1", "S2")]
