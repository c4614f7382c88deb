#!/usr/bin/env python3
"""A flash crowd hits the proxy chain: watch SERvartuka adapt live.

Offered load ramps from a comfortable level through well past the
stateful capacity of the chain and back down.  Every monitoring period
we record, per proxy, how many calls it handled statefully vs
statelessly -- Algorithm 2's ``myshare`` in action -- plus the overload
reports that flow upstream at the peak.

Run:
    python examples/flash_crowd.py
"""

from repro import ScenarioConfig, two_series
from repro.harness.report import format_table, sparkline
from repro.sim.events import collector_off
from repro.workloads.callgen import LoadProfile, LoadStep, apply_profile

SCALE = 25.0


def main() -> None:
    config = ScenarioConfig(scale=SCALE, seed=5, monitor_period=1.0,
                            via_overhead=0.0)
    scenario = two_series(4000, policy="servartuka", config=config)

    # Flash crowd: 4k -> 11.2k cps in two surges, then recovery.
    profile = LoadProfile([
        LoadStep(4000 / SCALE, 6.0),
        LoadStep(8000 / SCALE, 6.0),
        LoadStep(11200 / SCALE, 10.0),
        LoadStep(5000 / SCALE, 8.0),
    ])

    # Sample per-proxy counters once per second.
    samples = []

    def sample():
        row = {"t": scenario.loop.now}
        for name, proxy in scenario.proxies.items():
            row[f"{name}_sf"] = proxy.metrics.counter("invites_stateful").value
            row[f"{name}_sl"] = proxy.metrics.counter("invites_stateless").value
            row[f"{name}_500"] = proxy.metrics.counter("rejected_500").value
        samples.append(row)
        if scenario.loop.now < end - 0.5:
            scenario.loop.schedule(1.0, sample)

    scenario.start()
    end = apply_profile(scenario.loop, scenario.generators, profile)
    scenario.loop.schedule(1.0, sample)
    # A custom drive owns the cyclic collector like the library's own
    # drivers do: no event leaves a cycle, so it stays off for the run.
    with collector_off():
        scenario.loop.run_until(end)
    scenario.stop_load()

    # Differentiate the cumulative counters into per-second rates.
    rows = []
    p1_share = []
    for before, after in zip(samples, samples[1:]):
        seconds = after["t"] - before["t"]
        sf1 = (after["P1_sf"] - before["P1_sf"]) / seconds * SCALE
        sl1 = (after["P1_sl"] - before["P1_sl"]) / seconds * SCALE
        sf2 = (after["P2_sf"] - before["P2_sf"]) / seconds * SCALE
        rejects = (
            after["P1_500"] + after["P2_500"]
            - before["P1_500"] - before["P2_500"]
        )
        total1 = sf1 + sl1
        p1_share.append(sf1 / total1 if total1 else 1.0)
        rows.append([
            f"{after['t']:5.1f}",
            round(sf1), round(sl1), round(sf2), rejects,
        ])

    print(format_table(
        ["t (s)", "P1 stateful cps", "P1 stateless cps", "P2 stateful cps",
         "500s"],
        rows,
        title="Flash crowd timeline (paper-equivalent cps)",
    ))
    print()
    print("P1 stateful share over time:", sparkline(p1_share))
    print()
    print("During the surge P1's Algorithm 2 lowers its myshare, the "
          "excess calls travel stateless to P2 (which must then hold "
          "their state), and when the crowd passes P1 takes everything "
          "back -- no reconfiguration, no operator.")


if __name__ == "__main__":
    main()
