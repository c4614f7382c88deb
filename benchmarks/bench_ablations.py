"""Ablations over the design choices DESIGN.md calls out.

Not paper figures -- these probe the knobs of the reproduction itself:

- static placement: all-stateful (case i) vs single-stateful (case ii),
- SERvartuka monitoring period,
- planning headroom,
- Via-size overhead (the mechanism behind chain-depth capacity loss),
- non-homogeneous parallel fork (section 6.2's discussion: a strong
  front with weak forks should keep state at the front).
"""

from repro.harness.figures import FigureData, capacity_of
from repro.harness.parallel import SpecTemplate
from repro.harness.runner import run_scenario
from repro.workloads.scenarios import (
    ServartukaConfig,
    chain_topology,
    two_series,
)


class TestStaticPlacement:
    def test_static_placement_variants(self, quality, save_figure):
        def run():
            rows = []
            for label, kwargs in (
                ("all-stateful (case i)", dict(policy="static")),
                ("exit stateful (case ii)", dict(policy="static-one")),
                ("entry stateful", dict(policy="static-one", static_stateful="P1")),
                ("servartuka", dict(policy="servartuka")),
            ):
                template = SpecTemplate(
                    "n_series", quality.scenario_config(), n=2, **kwargs
                )
                capacity = capacity_of(template, hint=9500, quality=quality)
                rows.append([label, round(capacity)])
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

        figure = run()
        save_figure(figure, "ablation_static_placement.txt")
        values = {row[0]: row[1] for row in figure.rows}
        assert values["servartuka"] >= values["all-stateful (case i)"]
        assert values["entry stateful"] >= values["exit stateful (case ii)"] * 0.97


class TestMonitoringPeriod:
    def test_period_sensitivity(self, quality, save_figure):
        offered = 10200  # above static capacity, below the LP bound

        def run():
            rows = []
            for period in (0.25, 1.0, 4.0):
                config = quality.scenario_config(
                    monitor_period=period,
                    servartuka=ServartukaConfig(period=period),
                )
                result = run_scenario(
                    two_series(offered, policy="servartuka", config=config),
                    duration=max(quality.duration, 6 * period),
                    warmup=max(quality.warmup, 2 * period),
                )
                rows.append([
                    period, round(result.throughput_cps),
                    round(result.stateful_coverage, 3), result.server_busy_500,
                ])
            return FigureData(
                "Ablation: monitoring period",
                "SERvartuka throughput vs Algorithm 2 period (offered 10,200)",
                ["period_s", "throughput_cps", "stateful_coverage", "busy_500"],
                rows,
                description=(
                    "Algorithm 2's recomputation period trades reaction "
                    "speed against measurement noise; throughput is flat "
                    "across an order of magnitude, showing the algorithm "
                    "is not tuned to one cadence."
                ),
            )

        figure = run()
        save_figure(figure, "ablation_period.txt")
        throughputs = [row[1] for row in figure.rows]
        assert max(throughputs) < 1.35 * min(throughputs)


class TestHeadroom:
    def test_headroom_tradeoff(self, quality, save_figure):
        offered = 10200

        def run():
            rows = []
            for headroom in (1.0, 0.92, 0.85):
                config = quality.scenario_config(
                    servartuka=ServartukaConfig(headroom=headroom),
                )
                result = run_scenario(
                    two_series(offered, policy="servartuka", config=config),
                    duration=quality.duration, warmup=quality.warmup,
                )
                rows.append([
                    headroom, round(result.throughput_cps),
                    result.server_busy_500, result.retransmissions,
                ])
            return FigureData(
                "Ablation: planning headroom",
                "Throughput vs feasibility headroom (offered 10,200)",
                ["headroom", "throughput_cps", "busy_500", "retransmissions"],
                rows,
                description=(
                    "Planning to exactly 100% utilization (headroom 1.0, "
                    "the paper's equation 8) maximizes throughput but "
                    "rides the overload edge; backing off trades a few "
                    "percent of capacity for fewer 500s/retransmissions."
                ),
            )

        figure = run()
        save_figure(figure, "ablation_headroom.txt")
        assert len(figure.rows) == 3


class TestViaOverhead:
    def test_depth_penalty_mechanism(self, quality, save_figure):
        def run():
            rows = []
            for overhead in (0.0, 0.2, 0.4):
                config = quality.scenario_config(via_overhead=overhead)
                topology = chain_topology(2, config.make_cost_model())

                template = SpecTemplate("n_series", config, n=2,
                                        policy="static")
                capacity = capacity_of(
                    template,
                    hint=min(topology.node(name).t_sf
                             for name in topology.node_names),
                    quality=quality,
                )
                rows.append([
                    overhead,
                    round(topology.node("P2").t_sf),  # exit node T_SF
                    round(capacity),
                ])
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

        figure = run()
        save_figure(figure, "ablation_via_overhead.txt")
        capacities = [row[2] for row in figure.rows]
        assert capacities[0] > capacities[1] > capacities[2]


class TestNonHomogeneousFork:
    def test_weak_forks_favor_front_state(self, quality, save_figure):
        """Section 6.2: 'if the first server has much larger capacity
        than the two downstream paths then it might be beneficial for it
        to maintain some state or even all state'."""

        def run():
            rows = []
            # Heterogeneity is emulated with an uneven split: pushing 85%
            # of the load down one fork stresses it exactly like a weak
            # fork node would be.
            for label, kwargs in (
                ("static, even split", dict(policy="static", upper_share=0.5)),
                ("static, 85/15 split", dict(policy="static", upper_share=0.85)),
                ("static front-stateful, 85/15",
                 dict(policy="static", upper_share=0.85,
                      static_front_stateful=True)),
                ("servartuka, 85/15", dict(policy="servartuka", upper_share=0.85)),
            ):
                template = SpecTemplate(
                    "parallel_fork", quality.scenario_config(), **kwargs
                )
                capacity = capacity_of(template, hint=10500, quality=quality)
                rows.append([label, round(capacity)])
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

        figure = run()
        save_figure(figure, "ablation_fork.txt")
        values = {row[0]: row[1] for row in figure.rows}
        best_static_uneven = max(
            values["static, 85/15 split"],
            values["static front-stateful, 85/15"],
        )
        assert values["servartuka, 85/15"] >= 0.93 * best_static_uneven
