"""Frozen cross-check: the LP objectives two independent solvers agreed on.

Until the scipy (HiGHS) backend was removed, this file solved every
topology below with both it and the pure-python simplex and required
the objectives to agree within ``1e-6`` relative.  Just before the
removal they agreed within ``3.3e-16`` relative on every instance (the
largest difference is one ulp).  The agreed objectives are pinned here,
so the simplex, now the only solver, is still held to a value an
independent implementation produced, and every solution still passes
:meth:`LPSolution.verify`.

The pins are tight (``1e-9`` relative) but not bitwise: CPython 3.12
changed how ``sum()`` rounds floats, which may move the last digit.
"""

import pytest

from repro.core import topogen
from repro.core.lp import (
    FlowPathLP,
    StateDistributionLP,
    solve_fixed_routing,
    solve_free_routing,
)
from repro.core.simplex import SimplexError, solve_linear_program
from repro.core.topology import series_topology, two_series_topology

from tests.core.hand_topologies import fork, mix

T_SF = 10360.0
T_SL = 12300.0

#: Every topology shape the LP test-suite exercises.
FIXTURES = {
    "two_series": lambda: two_series_topology(T_SF, T_SL),
    "three_series": lambda: series_topology([(T_SF, T_SL)] * 3),
    "single_node": lambda: series_topology([(T_SF, T_SL)]),
    "hetero_series": lambda: series_topology([(11000, 12300), (9000, 12300)]),
    "degenerate_series": lambda: series_topology(
        [(12000, 12300), (6200, 12300)]
    ),
    "int_ext_0": lambda: mix(T_SF, T_SL, 0.0),
    "int_ext_50": lambda: mix(T_SF, T_SL, 0.5),
    "int_ext_80": lambda: mix(T_SF, T_SL, 0.8),
    "int_ext_100": lambda: mix(T_SF, T_SL, 1.0),
    "fork": lambda: fork(
        (T_SF, T_SL), (T_SF, T_SL), (T_SF, T_SL)
    ),
    "fork_weak": lambda: fork(
        (T_SF, T_SL), (3000, 3600), (3000, 3600)
    ),
    "fork_uneven": lambda: fork(
        (T_SF, T_SL), (T_SF, T_SL), (T_SF, T_SL), upper_share=0.9
    ),
}

#: name -> (free-routing, fixed-routing) objective both solvers agreed on.
FIXTURE_OBJECTIVES = {
    "two_series": (11246.954986760811, 11246.954986760811),
    "three_series": (11577.34706238643, 11577.347062386432),
    "single_node": (10360.0, 10360.0),
    "hetero_series": (11290.877796901894, 11290.877796901894),
    "degenerate_series": (12007.257120561842, 12007.257120561842),
    "int_ext_0": (10360.0, 10360.0),
    "int_ext_50": (11994.016260162602, 11246.95498676081),
    "int_ext_80": (11994.016260162602, 11855.973204317082),
    "int_ext_100": (11246.954986760811, 11246.954986760811),
    "fork": (12300.0, 12299.999999999996),
    "fork_weak": (7200.0, 7200.0),
    "fork_uneven": (12300.0, 11892.487167522166),
}

#: Generated instances (family, size, heterogeneity) at seed 7, with the
#: (oracle, free-routing) objective both solvers agreed on.  Four were
#: re-pinned, simplex only, when topologies started to carry the relay
#: price of the downstream 100 Trying: the tree oracles and every free
#: objective whose optimum forwards calls with their state still ahead.
GENERATED_OBJECTIVES = {
    ("chain", 4, 0.0): (10754.151971991489, 11161.352890592894),
    ("chain", 8, 0.5): (5978.328115142598, 9957.488571618735),
    ("tree", 7, 0.0): (11682.88592907255, 11682.885929072547),
    ("tree", 15, 0.4): (8874.654541798565, 8874.654541798567),
    ("mesh", 12, 0.0): (13709.056986459811, 36865.70044592495),
    ("mesh", 24, 0.6): (10699.500403364586, 63302.50481509861),
}
GENERATED = list(GENERATED_OBJECTIVES)


def _assert_pinned(solution, pinned):
    solution.verify()
    assert solution.throughput == pytest.approx(pinned, rel=1e-9)


def _generate(family, size, het):
    return topogen.generate(family, size, seed=7, heterogeneity=het)


class TestFixtureAgreement:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_free_routing(self, name):
        _assert_pinned(solve_free_routing(FIXTURES[name]()),
                       FIXTURE_OBJECTIVES[name][0])

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixed_routing(self, name):
        _assert_pinned(solve_fixed_routing(FIXTURES[name]()),
                       FIXTURE_OBJECTIVES[name][1])

    def test_hop_penalties(self):
        topo = two_series_topology(T_SF, T_SL)
        topo.hop_prices[("main", "S2")] = (1.2, 0.0)
        _assert_pinned(FlowPathLP(topo).solve(), 10250.0)


class TestGeneratedAgreement:
    @pytest.mark.parametrize("family,size,het", GENERATED)
    def test_oracle_objective(self, family, size, het):
        _assert_pinned(_generate(family, size, het).oracle(),
                       GENERATED_OBJECTIVES[(family, size, het)][0])

    @pytest.mark.parametrize("family,size,het", GENERATED)
    def test_free_routing_objective(self, family, size, het):
        _assert_pinned(solve_free_routing(_generate(family, size, het).topology),
                       GENERATED_OBJECTIVES[(family, size, het)][1])


class TestSimplexAlone:
    """Feasibility and the raw solver's error paths."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_feasibility(self, name):
        topo = FIXTURES[name]()
        solve_free_routing(topo).verify()
        solve_fixed_routing(topo).verify()

    def test_paper_two_series_value(self):
        solution = solve_free_routing(two_series_topology(T_SF, T_SL))
        assert solution.throughput == pytest.approx(11247, abs=5)

    def test_raw_solver_small_program(self):
        # min -x - y  s.t.  x + y <= 4, x <= 3, 0 <= y <= 2
        x = solve_linear_program(
            [-1.0, -1.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[4.0],
            bounds=[(0.0, 3.0), (0.0, 2.0)],
        )
        assert x[0] + x[1] == pytest.approx(4.0, abs=1e-9)

    def test_raw_solver_equality_and_fixed_vars(self):
        # min x + 2y  s.t.  x + y = 3, y fixed at 1.
        x = solve_linear_program(
            [1.0, 2.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[3.0],
            bounds=[(0.0, None), (1.0, 1.0)],
        )
        assert x == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_raw_solver_infeasible(self):
        with pytest.raises(SimplexError):
            solve_linear_program(
                [1.0],
                a_eq=[[1.0]],
                b_eq=[5.0],
                bounds=[(0.0, 1.0)],
            )


class TestBackendSelection:
    """Two ``backend=`` keywords survive; they name only the one solver."""

    def test_unknown_backend_rejected(self):
        gen = _generate("chain", 4, 0.0)
        for name in ("glpk", "auto", ""):
            with pytest.raises(ValueError, match="only solver is 'simplex'"):
                StateDistributionLP(gen.topology, backend=name)
            with pytest.raises(ValueError, match="only solver is 'simplex'"):
                gen.oracle(backend=name)

    def test_scipy_requested_but_missing(self):
        # The scipy backend is gone on every host, installed or not.
        gen = _generate("chain", 4, 0.0)
        with pytest.raises(ValueError, match="'scipy'"):
            StateDistributionLP(gen.topology, backend="scipy")
        with pytest.raises(ValueError, match="'scipy'"):
            gen.oracle(backend="scipy")

    def test_instance_backend_pins_solver(self):
        for backend in (None, "simplex"):
            lp = StateDistributionLP(
                two_series_topology(T_SF, T_SL), backend=backend
            )
            _assert_pinned(lp.solve(), FIXTURE_OBJECTIVES["two_series"][0])
        gen = _generate("mesh", 12, 0.0)
        _assert_pinned(gen.oracle(backend="simplex"),
                       GENERATED_OBJECTIVES[("mesh", 12, 0.0)][0])
