"""Optimality-gap experiments: distributed Algorithm 2 vs the LP oracle.

The ``optgap`` family answers the cluster-scale question the paper
leaves open: how far does the *distributed* SERvartuka heuristic fall
from the *centralized* LP optimum as topologies grow and turn
heterogeneous?  For every grid cell (family x size x heterogeneity):

1. generate the topology (:mod:`repro.core.topogen`, seeded and
   bit-deterministic);
2. solve the routing-constrained LP oracle on the scenario's own
   topology for the optimal admitted throughput ``T*``
   (:func:`~repro.harness.saturation.lp_bound`: the bit-deterministic
   pure-python simplex, so the oracle rates, which seed run-cache keys,
   are the same on every host);
3. simulate the topology under Algorithm 2, offered exactly ``T*``;
4. report ``gap = clamp(1 - goodput / T*, 0, 1)``.

The simulation points are plain scenario specs, so ``--jobs`` fans
them across workers and the run cache stores them like every other
experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import topogen
from repro.harness.figures import QUICK, FigureData, Quality
from repro.harness.parallel import SpecTemplate, run_specs
from repro.harness.runner import RunResult
from repro.harness.saturation import lp_bound
from repro.workloads.scenarios import ScenarioConfig

#: Simulated per-call economics get expensive at cluster sizes; the
#: optgap grid pins its own scale floor (capacities divided by >= this)
#: the same way the overload family pins its anchor configuration.
OPTGAP_MIN_SCALE = 50.0

#: Algorithm 2 reacts once per monitor period; a short period gives the
#: distributed control loop enough iterations to settle inside the
#: quality presets' warmup windows.
OPTGAP_MONITOR_PERIOD = 0.5

#: Candidate sizes per family, smallest first.  ``mesh`` always keeps
#: its >= 50-proxy flagship in the grid (acceptance: the experiment
#: exercises a cluster-scale topology end to end at every quality).
_FAMILY_SIZES: Dict[str, Tuple[int, ...]] = {
    "chain": (4, 8, 16, 32),
    "tree": (7, 15, 31, 63),
    "mesh": (12, 24, 51, 102),
}

_MESH_FLAGSHIP = 51


def optgap_config(quality: Quality, **overrides) -> ScenarioConfig:
    """The pinned scenario configuration for one optgap cell."""
    kwargs = dict(
        scale=max(quality.scale, OPTGAP_MIN_SCALE),
        monitor_period=OPTGAP_MONITOR_PERIOD,
    )
    kwargs.update(overrides)
    return quality.scenario_config(**kwargs)


def optgap_grid(quality: Quality) -> List[Dict[str, object]]:
    """The (family, size, heterogeneity) cells one quality level runs.

    Depth scales with the preset's ``sweep_points`` (quick 4 ->
    2 sizes x 2 heterogeneity levels, full 8 -> 4 x 3).
    """
    n_sizes = max(2, min(4, quality.sweep_points // 2))
    heterogeneities = (0.0, 0.3) if n_sizes <= 2 else (0.0, 0.3, 0.6)
    cells: List[Dict[str, object]] = []
    for family in topogen.FAMILIES:
        sizes = list(_FAMILY_SIZES[family][:n_sizes])
        if family == "mesh" and _MESH_FLAGSHIP not in sizes:
            sizes[-1] = _MESH_FLAGSHIP
        for size in sizes:
            for het in heterogeneities:
                cells.append(
                    {"family": family, "size": size, "heterogeneity": het}
                )
    return cells


def _cell_template(cell: Dict[str, object],
                   config: ScenarioConfig) -> SpecTemplate:
    """The ``generated`` scenario of one cell under Algorithm 2."""
    return SpecTemplate(
        "generated", config,
        label=f"optgap/{cell['family']}:{cell['size']}"
              f"/h{cell['heterogeneity']:g}",
        family=cell["family"],
        size=cell["size"],
        seed=config.seed,
        heterogeneity=cell["heterogeneity"],
        policy="servartuka",
    )


def optgap_rows(
    quality: Quality = QUICK,
    cells: Optional[Sequence[Dict[str, object]]] = None,
) -> List[List[object]]:
    """Measure every grid cell; rows sorted by (family, proxies, het).

    Row format: ``[family, n_proxies, heterogeneity, lp_cps,
    algorithm2_cps, gap]`` with ``gap`` clamped into ``[0, 1]``.
    """
    config = optgap_config(quality)
    cells = list(cells if cells is not None else optgap_grid(quality))
    templates = [_cell_template(cell, config) for cell in cells]
    bounds = [lp_bound(template) for template in templates]
    payloads = run_specs([
        template.at(bound, quality.duration, quality.warmup)
        for template, bound in zip(templates, bounds)
    ])
    rows: List[List[object]] = []
    for cell, lp_cps, payload in zip(cells, bounds, payloads):
        result = RunResult.from_payload(payload["result"])
        achieved = result.throughput_cps
        gap = min(1.0, max(0.0, 1.0 - achieved / lp_cps))
        rows.append([
            str(cell["family"]),
            len(result.proxy_utilization),
            float(cell["heterogeneity"]),
            lp_cps,
            achieved,
            gap,
        ])
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def optgap_figure(quality: Quality = QUICK) -> FigureData:
    """The ``optgap`` experiment: LP-optimal vs Algorithm 2 goodput."""
    rows = optgap_rows(quality)
    series: Dict[str, List[Tuple[float, float]]] = {}
    for family, n, het, _lp, _achieved, gap in rows:
        series.setdefault(f"{family} h={het:g}", []).append((float(n), gap))
    return FigureData(
        figure_id="optgap",
        title="Optimality gap: distributed Algorithm 2 vs LP oracle",
        columns=["family", "proxies", "heterogeneity",
                 "lp cps", "algorithm2 cps", "gap"],
        rows=rows,
        description=(
            "Each generated topology is offered exactly its LP-optimal "
            "admitted load T* (FlowPathLP on the scenario's own "
            "topology, priced hop by hop as the simulator charges) and "
            "simulated under the distributed SERvartuka policy; "
            "gap = 1 - goodput/T*, "
            "clamped to [0, 1].  Rows are sorted by family, size and "
            "heterogeneity."
        ),
        series=series,
    )


def render_summary(figure: FigureData) -> str:
    """Stable text table of the gap per cell (golden-snapshot format).

    Throughputs are rounded to whole paper-cps and the gap to three
    decimals, so the snapshot is robust to sub-ULP formatting drift
    while still pinning every simulated and LP value.
    """
    lines = ["family  proxies  het   lp_cps  alg2_cps  gap"]
    for family, n, het, lp_cps, achieved, gap in figure.rows:
        lines.append(
            f"{family:<7s} {n:>6d}  {het:<4.2f} {round(lp_cps):>7d} "
            f"{round(achieved):>8d}  {gap:.3f}"
        )
    return "\n".join(lines) + "\n"
