"""Property battery for the cluster-scale topology generator.

Every sampled (family, size, seed, heterogeneity) instance must
produce a *well-formed* cluster: flows connect an entry to an exit
along real edges, the entry/exit marks agree with the flows, every
node satisfies ``t_sf <= t_sl``, regeneration under the same arguments
is bit-deterministic, and the LP oracle's solution passes
:meth:`LPSolution.verify`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import topogen
from repro.core.costmodel import CostModel
from repro.core.topology import SINK, SOURCE

# One strategy per family so sizes respect the family's minimum.
instances = st.one_of(
    st.tuples(
        st.just("chain"),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.tuples(
        st.just("tree"),
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.tuples(
        st.just("mesh"),
        st.integers(min_value=4, max_value=60),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)


def _snapshot(gen):
    """Everything observable about an instance, as plain data."""
    return (
        gen.spec(),
        [(n.name, n.depth, n.speed, n.delivers, n.t_sf, n.t_sl)
         for n in gen.nodes.values()],
        sorted(gen.topology.edges),
        [(f.name, tuple(f.path), f.share) for f in gen.topology.flows],
        sorted(gen.hop_penalties.items()),
    )


@settings(max_examples=60, deadline=None)
@given(instance=instances)
def test_flows_connect_source_to_sink(instance):
    family, size, seed, het = instance
    gen = topogen.generate(family, size, seed=seed, heterogeneity=het)
    topo = gen.topology
    edges = set(topo.edges)
    assert topo.flows
    for flow in topo.flows:
        assert flow.entry in topo.entries
        assert flow.exit in topo.exits
        for src, dst in zip(flow.path, flow.path[1:]):
            assert (src, dst) in edges
    # The implicit SOURCE/SINK convention: entry nodes admit external
    # arrivals, exit nodes deliver -- neither end is a reserved name.
    assert SOURCE not in topo.node_names
    assert SINK not in topo.node_names


@settings(max_examples=60, deadline=None)
@given(instance=instances)
def test_entries_exits_consistent(instance):
    family, size, seed, het = instance
    gen = topogen.generate(family, size, seed=seed, heterogeneity=het)
    topo = gen.topology
    assert set(topo.entries) == {f.entry for f in topo.flows}
    assert set(topo.exits) == {f.exit for f in topo.flows}
    delivering = {n.name for n in gen.nodes.values() if n.delivers}
    assert delivering == set(topo.exits)


@settings(max_examples=60, deadline=None)
@given(instance=instances)
def test_capacities_ordered(instance):
    family, size, seed, het = instance
    gen = topogen.generate(family, size, seed=seed, heterogeneity=het)
    for node in gen.nodes.values():
        assert 0.0 < node.t_sf <= node.t_sl
        spec = gen.topology.node(node.name)
        assert spec.t_sf == node.t_sf
        assert spec.t_sl == node.t_sl


@settings(max_examples=30, deadline=None)
@given(instance=instances)
def test_bit_deterministic_under_fixed_seed(instance):
    family, size, seed, het = instance
    first = topogen.generate(family, size, seed=seed, heterogeneity=het)
    second = topogen.generate(family, size, seed=seed, heterogeneity=het)
    assert _snapshot(first) == _snapshot(second)


@settings(max_examples=20, deadline=None)
@given(instance=instances)
def test_oracle_solution_verifies(instance):
    family, size, seed, het = instance
    gen = topogen.generate(family, size, seed=seed, heterogeneity=het)
    solution = gen.oracle()
    solution.verify()
    assert solution.throughput > 0.0


@settings(max_examples=30, deadline=None)
@given(instance=instances)
def test_shares_normalized(instance):
    family, size, seed, het = instance
    gen = topogen.generate(family, size, seed=seed, heterogeneity=het)
    shares = gen.topology.normalized_flow_shares()
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(share > 0.0 for share in shares.values())


@settings(max_examples=30, deadline=None)
@given(instance=instances)
def test_heterogeneity_shapes_speeds_not_structure(instance):
    """het changes node speeds only; graph shape is drawn first."""
    family, size, seed, het = instance
    flat = topogen.generate(family, size, seed=seed, heterogeneity=0.0)
    skewed = topogen.generate(family, size, seed=seed, heterogeneity=het)
    assert sorted(flat.topology.edges) == sorted(skewed.topology.edges)
    assert (
        [(f.name, tuple(f.path)) for f in flat.topology.flows]
        == [(f.name, tuple(f.path)) for f in skewed.topology.flows]
    )
    assert all(n.speed == 1.0 for n in flat.nodes.values())


class TestArguments:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            topogen.generate("ring", 8)

    @pytest.mark.parametrize(
        "family,too_small", [("chain", 1), ("tree", 2), ("mesh", 3)]
    )
    def test_size_floor(self, family, too_small):
        with pytest.raises(ValueError):
            topogen.generate(family, too_small)

    def test_negative_heterogeneity(self):
        with pytest.raises(ValueError):
            topogen.generate("chain", 4, heterogeneity=-0.1)

    def test_spec_roundtrip(self):
        gen = topogen.generate("mesh", 24, seed=11, heterogeneity=0.4)
        again = topogen.generate(**gen.spec())
        assert _snapshot(gen) == _snapshot(again)

    def test_custom_cost_model_scales_capacities(self):
        unit = topogen.generate("chain", 4, seed=3)
        halved = topogen.generate(
            "chain", 4, seed=3,
            cost_model=CostModel(t_sf=5180.0, t_sl=6150.0, scale=1.0),
        )
        for a, b in zip(unit.nodes.values(), halved.nodes.values()):
            assert b.t_sf == pytest.approx(a.t_sf / 2, rel=1e-9)
            assert b.t_sl == pytest.approx(a.t_sl / 2, rel=1e-9)

    def test_flagship_mesh_is_cluster_scale(self):
        gen = topogen.generate("mesh", 51, seed=1)
        assert gen.n_proxies >= 50
        assert len(gen.topology.flows) >= 4
