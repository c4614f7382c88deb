"""Load sweeps and saturation search.

The paper determines saturation by offering increasing load until the
server pegs at 100% CPU and the delivered call rate stops growing; the
reported "saturation throughput" of a configuration is the plateau of
delivered calls per second.  :func:`sweep_loads` replays that
methodology (one fresh scenario per offered load, like their separate
runs), and :func:`find_capacity` wraps it with a coarse-to-fine search
around the scenario's LP bound so figure generation does not need a
wide, dense sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.harness.parallel import (
    SpecTemplate,
    build_scenario,
    run_scenario_specs,
)
from repro.harness.runner import RunResult


class SweepPoint:
    """One (offered load, measurements) pair."""

    __slots__ = ("offered_cps", "result")

    def __init__(self, offered_cps: float, result: RunResult):
        self.offered_cps = offered_cps
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SweepPoint offered={self.offered_cps:.0f} "
            f"throughput={self.result.throughput_cps:.0f}>"
        )


class SweepResult:
    """An ordered collection of sweep points plus summary queries."""

    def __init__(self, label: str, points: Sequence[SweepPoint]):
        self.label = label
        self.points = sorted(points, key=lambda p: p.offered_cps)

    @property
    def max_throughput(self) -> float:
        """The plateau: the paper's saturation throughput."""
        if not self.points:
            return 0.0
        return max(p.result.throughput_cps for p in self.points)

    @property
    def knee_offered(self) -> float:
        """Highest offered load still served at >= 95% goodput."""
        best = 0.0
        for point in self.points:
            if point.result.goodput_ratio >= 0.95:
                best = max(best, point.offered_cps)
        return best

    def throughput_series(self) -> List[tuple]:
        return [(p.offered_cps, p.result.throughput_cps) for p in self.points]

    def utilization_series(self, node: str) -> List[tuple]:
        return [
            (p.offered_cps, p.result.proxy_utilization.get(node, 0.0))
            for p in self.points
        ]

    def response_time_series(self, stat: str = "mean") -> List[tuple]:
        return [
            (p.offered_cps, p.result.invite_rt.get(stat, 0.0)) for p in self.points
        ]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SweepResult {self.label} points={len(self.points)}>"


def sweep_loads(
    template: SpecTemplate,
    loads: Sequence[float],
    duration: float = 15.0,
    warmup: float = 5.0,
    label: str = "",
) -> SweepResult:
    """Run one fresh scenario per offered load (paper-equivalent cps).

    The whole load batch is handed to the parallel executor: points run
    across the ambient context's workers, previously-seen points come
    out of the run cache, and results merge back in load order.
    """
    if not loads:
        raise ValueError("need at least one load point")
    if not isinstance(template, SpecTemplate):
        raise TypeError(
            "sweep_loads/find_capacity/refine_peak take a "
            "repro.harness.parallel.SpecTemplate (or use repro.api.sweep), "
            f"not {type(template).__name__}"
        )
    specs = [template.at(load, duration, warmup) for load in loads]
    results = run_scenario_specs(specs)
    points = [
        SweepPoint(load, result) for load, result in zip(loads, results)
    ]
    return SweepResult(label or "sweep", points)


def staircase(start: float, stop: float, step: float) -> List[float]:
    """The paper's 20-cps-increment style load list (paper cps units).

    Each point is generated as ``start + i * step`` (not by repeated
    addition, whose float error accumulates across a long staircase and
    can drop the final point or emit off-grid loads).
    """
    if step <= 0 or start <= 0 or stop < start:
        raise ValueError("need 0 < start <= stop, step > 0")
    count = int((stop - start) / step + 1e-9) + 1
    return [round(start + i * step, 6) for i in range(count)]


def _peak_index(result: SweepResult) -> int:
    """Index of the highest-throughput point."""
    return max(
        range(len(result.points)),
        key=lambda i: result.points[i].result.throughput_cps,
    )


def _probe_peak(
    template: SpecTemplate,
    base: SweepResult,
    probes: Sequence[float],
    duration: float,
    warmup: float,
    label: str,
) -> SweepResult:
    """Sweep extra probe loads and merge them into ``base``'s points."""
    fine = sweep_loads(
        template, probes, duration=duration, warmup=warmup, label=label
    )
    return SweepResult(label, list(base.points) + list(fine.points))


def refine_peak(
    template: SpecTemplate,
    coarse: SweepResult,
    duration: float = 10.0,
    warmup: float = 4.0,
) -> SweepResult:
    """Add fine-grained points around a coarse sweep's throughput peak.

    Returns a new :class:`SweepResult` containing the original points
    plus probes between the peak and its grid neighbours.
    """
    if len(coarse.points) < 2:
        return coarse
    best_index = _peak_index(coarse)
    best = coarse.points[best_index]
    neighbours = [
        coarse.points[i].offered_cps
        for i in (best_index - 1, best_index + 1)
        if 0 <= i < len(coarse.points)
    ]
    probes = [
        best.offered_cps + (neighbour - best.offered_cps) * frac
        for neighbour in neighbours
        for frac in (0.33, 0.66)
    ]
    return _probe_peak(
        template, coarse, probes, duration, warmup, coarse.label
    )


def lp_bound(template: SpecTemplate) -> float:
    """The fixed-routing LP throughput (paper cps) of ``template``'s
    scenario: the capacity the paper's section 4.1 LP predicts for it.

    The scenario is built once, at a nominal rate, only for the
    topology it is wired from; builders wired by hand have none.
    """
    from repro.core.lp import solve_fixed_routing

    scenario = build_scenario(template.at(1.0, 0.0, 0.0).payload)
    if scenario.topology is None:
        raise ValueError(
            f"{template.builder} has no topology to bound; pass hint="
        )
    return solve_fixed_routing(scenario.topology).throughput


def find_capacity(
    template: SpecTemplate,
    hint: Optional[float] = None,
    duration: float = 10.0,
    warmup: float = 4.0,
    span: float = 0.35,
    points: int = 6,
    label: str = "",
    refine: bool = True,
) -> SweepResult:
    """Saturation search around a capacity hint (paper cps).

    ``hint=None`` takes the scenario's own LP bound (:func:`lp_bound`).
    Stage 1 sweeps ``points`` loads across ``hint * (1 ± span)``.
    Stage 2 (``refine``) re-sweeps a one-grid-spacing bracket around the
    best stage-1 point: past saturation the goodput *collapses* rather
    than plateauing, so a coarse grid can under-read the peak by up to
    one spacing; the refinement recovers it.  The LP bound ignores
    retransmission losses and service-time noise, so the simulated knee
    sits somewhat below it; a ±35% bracket comfortably contains it.
    """
    if hint is None:
        hint = lp_bound(template)
    if hint <= 0:
        raise ValueError("hint must be positive")
    if points < 2:
        raise ValueError("need at least two points")
    lo = hint * (1.0 - span)
    hi = hint * (1.0 + span)
    spacing = (hi - lo) / (points - 1)
    loads = [lo + spacing * i for i in range(points)]
    coarse = sweep_loads(template, loads, duration=duration, warmup=warmup, label=label)
    if not refine:
        return coarse
    best = coarse.points[_peak_index(coarse)]
    center = best.offered_cps
    fine_loads = [
        load
        for load in (center - 0.5 * spacing, center + 0.33 * spacing,
                     center + 0.66 * spacing)
        if load > 0
    ]
    return _probe_peak(
        template, coarse, fine_loads, duration, warmup, label or "capacity"
    )
