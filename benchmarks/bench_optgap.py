"""Optimality gap: Algorithm 2 vs the LP oracle at cluster scale.

Runs the ``optgap`` grid (``repro.harness.optgap``): generated chain /
tree / mesh topologies, each offered exactly its LP-optimal load ``T*``
(pure-python simplex oracle) and simulated under the distributed
SERvartuka policy; ``gap = 1 - goodput/T*``.  The paper stops at 2-3
node topologies, so the comparison rows are soft budgets, not paper
values.  Hard criteria:

- every gap lies in ``[0, 1]`` (clamped by construction, re-asserted
  on the emitted rows),
- rows are sorted by (family, proxies, heterogeneity),
- the grid exercises a >= 50-proxy mesh end to end,
- every comparison row stays inside its budget
  (``measured/budget <= 1``).
"""

from repro.harness.optgap import optgap_figure


def test_optgap(benchmark, quality, save_figure):
    figure = benchmark.pedantic(
        optgap_figure, args=(quality,), rounds=1, iterations=1
    )
    save_figure(figure, "optgap.txt")

    rows = figure.rows
    assert rows, "optgap grid produced no rows"
    keys = [(row[0], row[1], row[2]) for row in rows]
    assert keys == sorted(keys), "rows not sorted by (family, proxies, het)"
    assert all(0.0 <= row[5] <= 1.0 for row in rows), rows
    assert any(row[1] >= 50 for row in rows), (
        "grid never exercised a >= 50-proxy topology"
    )
    for label, budget, measured, ratio in figure.comparisons:
        assert ratio <= 1.0, (label, budget, measured)
