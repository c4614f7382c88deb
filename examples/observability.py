#!/usr/bin/env python3
"""Look inside a run: CPU profile, control-loop telemetry, call spans.

One SERvartuka chain is driven above its static capacity with the full
observability layer attached (``observe="all"``), then three views of
the same run are printed:

1. the per-functionality CPU profile of each proxy -- the paper's
   Figure-3 breakdown, measured live (where do P1's cycles go? how much
   is transaction-state work?),
2. the Algorithm-2 telemetry -- each monitoring period's ``myshare``
   decision and the operating-rule branch it took,
3. a span tree for one call -- setup/teardown phases with per-proxy
   dwell times, derived from the message trace.

Observability never changes a result: the same run with ``observe=None``
produces bit-identical metrics (tests/obs/test_observe_differential.py).

Run:
    python examples/observability.py
"""

from repro.api import run_scenario
from repro.obs.export import render_profile_table


def main() -> None:
    result = run_scenario(
        "n_series", n=2, rate=10500, policy="servartuka",
        scale=25.0, seed=42, duration=8.0, warmup=4.0,
        observe="all", cache=False,
    )
    print(f"throughput {result.throughput_cps:.0f} cps, "
          f"goodput {result.goodput_ratio:.1%}, "
          f"stateful coverage {result.stateful_coverage:.1%}")
    print()

    # ------------------------------------------------------------------
    # 1. Where the CPU went, per proxy and per functionality.
    # ------------------------------------------------------------------
    print(render_profile_table(result.obs))
    print()

    # ------------------------------------------------------------------
    # 2. What the control loop decided, period by period.
    # ------------------------------------------------------------------
    for node, telemetry in result.obs["telemetry"].items():
        print(f"{node}: {len(telemetry['periods'])} Algorithm-2 periods, "
              f"{len(telemetry['events'])} overload events")
        for sample in telemetry["periods"][:3]:
            shares = {
                path: entry["myshare"]
                for path, entry in sample["paths"].items()
            }
            print(f"  t={sample['time']:5.1f}s  "
                  f"rate={sample['msg_rate']:7.0f} msg/s  "
                  f"branch={sample['branch']:<11s} myshare={shares}")
        print()

    # ------------------------------------------------------------------
    # 3. One call as a span tree (times in ms since the call started).
    # ------------------------------------------------------------------
    # run_scenario returned a JSON snapshot; for live span objects build
    # the scenario yourself (api.make_scenario) -- here the snapshot's
    # payload form is enough to show the shape.
    first_call = next(iter(result.obs["spans"]))
    span = result.obs["spans"][first_call]
    print(f"call {first_call}:")
    _print_span_payload(span)


def _print_span_payload(span, origin=None, depth=0):
    origin = span["start"] if origin is None else origin
    where = f" @{span['node']}" if span.get("node") else ""
    print(f"  {'  ' * depth}{span['name']}{where}  "
          f"+{(span['start'] - origin) * 1e3:.3f}ms  "
          f"[{span['duration'] * 1e3:.3f}ms]")
    for child in span.get("children", ()):
        _print_span_payload(child, origin, depth + 1)


if __name__ == "__main__":
    main()
