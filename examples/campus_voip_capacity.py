#!/usr/bin/env python3
"""Capacity study for a campus VoIP deployment (paper Figures 5 and 7).

The paper's motivating example: calls from ``cc.gatech.edu`` traverse
the department proxy (S1) and the campus proxy (S2).  Some calls stay
inside the department (internal), the rest leave through both proxies
(external).  This script sweeps the external-traffic fraction and
reports, for each mix, what a static deployment and a SERvartuka
deployment can carry -- alongside the LP bound.

Run:
    python examples/campus_voip_capacity.py [--fast]
"""

import sys

from repro.api import (
    ScenarioConfig,
    find_capacity,
    make_scenario,
    solve_topology,
)
from repro.harness.report import format_table, sparkline


def main() -> None:
    fast = "--fast" in sys.argv
    fractions = [0.0, 0.8, 1.0] if fast else [i / 5 for i in range(6)]
    config = ScenarioConfig(scale=40.0, seed=11)

    rows = []
    gains = []
    for fraction in fractions:
        # The fixed-routing LP bound of the scenario's own topology: the
        # same number find_capacity seeds its search with.
        bound = solve_topology(make_scenario(
            "internal_external", rate=1.0, external_fraction=fraction,
            config=config,
        ).topology).throughput
        capacities = {}
        for policy in ("static", "servartuka"):
            # repro.api runs each load point through the parallel
            # executor, so repeated invocations replay from the run
            # cache instead of re-simulating.
            sweep = find_capacity(
                "internal_external",
                external_fraction=fraction, policy=policy, config=config,
                duration=4.0, warmup=2.0, points=3, span=0.3,
            )
            capacities[policy] = sweep.max_throughput
        gain = capacities["servartuka"] / capacities["static"] - 1
        gains.append(gain)
        rows.append([
            f"{fraction:.1f}",
            round(capacities["static"]),
            round(capacities["servartuka"]),
            round(bound),
            f"{gain:+.1%}",
        ])

    print(format_table(
        ["external fraction", "static cps", "servartuka cps", "LP cps", "gain"],
        rows,
        title="Campus deployment capacity vs traffic mix",
    ))
    print()
    print("gain profile:", sparkline(gains))
    print()
    print("Reading: when all traffic is internal (fraction 0) one proxy "
          "does everything and dynamics cannot help; as external traffic "
          "grows, SERvartuka shifts state onto whichever proxy has "
          "headroom -- operators no longer need to predict the mix.")


if __name__ == "__main__":
    main()
