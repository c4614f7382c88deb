"""Ablations over the design choices DESIGN.md calls out.

Not paper figures -- these probe the knobs of the reproduction itself,
one ``repro experiments`` id each (``ablation-placement``, ``-period``,
``-headroom``, ``-via``, ``-fork``); the claims they are held to are
checks in :mod:`repro.harness.anchors`.
"""

from __future__ import annotations

from repro.harness.figures import QUICK, FigureData, Quality, capacity_of
from repro.harness.parallel import SpecTemplate, run_scenario_specs
from repro.workloads.scenarios import ServartukaConfig, chain_topology

#: Offered load of the period and headroom ablations, paper cps: above
#: the static two-series capacity, below the LP bound.
OFFERED = 10200


def _capacity_rows(quality: Quality, builder: str, hint: float,
                   variants, **kwargs) -> list:
    """[label, capacity] per (label, builder kwargs) variant."""
    return [
        [label, round(capacity_of(
            SpecTemplate(builder, quality.scenario_config(),
                         **kwargs, **variant),
            hint=hint, quality=quality))]
        for label, variant in variants
    ]


def ablation_placement(quality: Quality = QUICK) -> FigureData:
    """Two-series capacity by static state placement, and SERvartuka's."""
    rows = _capacity_rows(quality, "n_series", 9500, (
        ("all-stateful (case i)", dict(policy="static")),
        ("exit stateful (case ii)", dict(policy="static-one")),
        ("entry stateful", dict(policy="static-one", static_stateful="P1")),
        ("servartuka", dict(policy="servartuka")),
    ), n=2)
    return FigureData(
        "Ablation: static placement",
        "Two-series capacity by state placement",
        ["configuration", "capacity_cps"],
        rows,
        description=(
            "Which node(s) statically hold state matters: the exit "
            "node is the weakest (deepest Via stack), so pinning "
            "state there or everywhere gives the paper's ~8.5-9k "
            "plateau; entry-stateful does better; SERvartuka finds "
            "the best placement automatically."
        ),
    )


def ablation_period(quality: Quality = QUICK) -> FigureData:
    """SERvartuka throughput at ``OFFERED`` vs Algorithm 2's period."""
    periods = (0.25, 1.0, 4.0)
    results = run_scenario_specs([
        # The monitor period is also Algorithm 2's planning period.
        SpecTemplate(
            "n_series", quality.scenario_config(monitor_period=period),
            n=2, policy="servartuka",
        ).at(OFFERED, duration=max(quality.duration, 6 * period),
             warmup=max(quality.warmup, 2 * period))
        for period in periods
    ])
    return FigureData(
        "Ablation: monitoring period",
        "SERvartuka throughput vs Algorithm 2 period (offered 10,200)",
        ["period_s", "throughput_cps", "stateful_coverage", "busy_500"],
        [[period, round(result.throughput_cps),
          round(result.stateful_coverage, 3), result.server_busy_500]
         for period, result in zip(periods, results)],
        description=(
            "Algorithm 2's recomputation period trades reaction "
            "speed against measurement noise; throughput is flat "
            "across an order of magnitude, showing the algorithm "
            "is not tuned to one cadence."
        ),
    )


def ablation_headroom(quality: Quality = QUICK) -> FigureData:
    """SERvartuka throughput at ``OFFERED`` vs planning headroom."""
    headrooms = (1.0, 0.92, 0.85)
    results = run_scenario_specs([
        SpecTemplate(
            "n_series",
            quality.scenario_config(
                servartuka=ServartukaConfig(headroom=headroom)),
            n=2, policy="servartuka",
        ).at(OFFERED, duration=quality.duration, warmup=quality.warmup)
        for headroom in headrooms
    ])
    return FigureData(
        "Ablation: planning headroom",
        "Throughput vs feasibility headroom (offered 10,200)",
        ["headroom", "throughput_cps", "busy_500", "retransmissions"],
        [[headroom, round(result.throughput_cps), result.server_busy_500,
          result.retransmissions]
         for headroom, result in zip(headrooms, results)],
        description=(
            "Planning to exactly 100% utilization (headroom 1.0, "
            "the paper's equation 8) maximizes throughput but "
            "rides the overload edge; backing off trades a few "
            "percent of capacity for fewer 500s/retransmissions."
        ),
    )


def ablation_via(quality: Quality = QUICK) -> FigureData:
    """Static two-series capacity vs the per-Via parsing overhead."""
    rows = []
    for overhead in (0.0, 0.2, 0.4):
        config = quality.scenario_config(via_overhead=overhead)
        topology = chain_topology(2, config.make_cost_model())
        capacity = capacity_of(
            SpecTemplate("n_series", config, n=2, policy="static"),
            hint=min(topology.node(name).t_sf for name in topology.node_names),
            quality=quality,
        )
        rows.append([overhead, round(topology.node("P2").t_sf),
                     round(capacity)])
    return FigureData(
        "Ablation: Via-size overhead",
        "Static two-series capacity vs per-Via parsing overhead",
        ["via_overhead", "exit_t_sf_cps", "measured_capacity_cps"],
        rows,
        description=(
            "The per-Via parsing/memory overhead is what makes a "
            "chained static deployment saturate below a single "
            "stateful server (paper: 8,540 vs ~10,360 cps).  With "
            "the overhead off, the chain saturates at T_SF itself."
        ),
    )


def ablation_fork(quality: Quality = QUICK) -> FigureData:
    """Section 6.2: 'if the first server has much larger capacity than
    the two downstream paths then it might be beneficial for it to
    maintain some state or even all state'.

    Heterogeneity is emulated with an uneven split: pushing 85% of the
    load down one fork stresses it exactly like a weak fork node would.
    """
    rows = _capacity_rows(quality, "parallel_fork", 10500, (
        ("static, even split", dict(policy="static", upper_share=0.5)),
        ("static, 85/15 split", dict(policy="static", upper_share=0.85)),
        ("static front-stateful, 85/15",
         dict(policy="static", upper_share=0.85, static_front_stateful=True)),
        ("servartuka, 85/15", dict(policy="servartuka", upper_share=0.85)),
    ))
    return FigureData(
        "Ablation: uneven parallel fork",
        "Fork capacity under skewed load splits",
        ["configuration", "capacity_cps"],
        rows,
        description=(
            "With an 85/15 split the hot fork saturates early if "
            "it must hold all state; SERvartuka matches or beats "
            "the best static assignment without knowing the split."
        ),
    )
