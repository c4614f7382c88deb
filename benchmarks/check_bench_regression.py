#!/usr/bin/env python
"""Gate engine-bench performance against the checked-in report.

CI runs ``python -m repro bench --quick ... --json BENCH_new.json`` and
then this script, which fails (exit 1) when either engine regressed
by more than ``--tolerance`` (default 15%) relative to the checked-in
``BENCH_engine.json``.

Absolute calls/sec are not comparable across machines (the checked-in
report and the CI runner have different CPUs), so the comparison is
**within-run normalized**: turbo's calls/sec is divided by the same
run's ``reference`` calls/sec, and only that machine-independent
speedup ratio is compared across reports, in both directions.  A 20%
slowdown injected into turbo drops the ratio by 20% and one injected
into the reference oracle raises it by 25%, so real regressions in
either are caught; a uniformly slower CI box shifts nothing.

Only the long-window steady-state scenarios are gated by default: the
resilience campaign's sub-second cells swing well past any usable
tolerance run-to-run (observed ~25%), so gating them would only flake.

When ``--hybrid BENCH_hybrid.json`` is given, the hybrid rung's
contract is gated too: every scenario's ``speedup_hybrid_vs_turbo``
(already a within-run wall-clock ratio, hence machine-independent)
must clear the floor -- >= 5x turbo for full reports per the hybrid
contract, relaxed to 2x for ``quick`` reports whose short runs
amortize fewer jumps -- and the report's recorded max deviation must
sit inside the tolerance band (goodput <= 1%, myshare <= 2 points,
outcomes <= 2%).

When ``--sharded BENCH_sharded.json`` is given, the sharded rung's
contract is gated too: on every scenario the ``shards=1`` degenerate
run must stay within ``--sharded-overhead`` (default 10%) of the same
run's serial turbo wall-clock (a within-run ratio, hence
machine-independent), the merged results must be flagged identical to
turbo, and every measured multi-shard rung must have moved cross-shard
traffic -- a ladder whose shards never talk measures nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

#: Scenarios stable enough to gate (6s+ measurement windows).
DEFAULT_SCENARIOS = ("two_series", "parallel_fig8")


def turbo_ratio(report: dict, scenario: str) -> Optional[float]:
    """Turbo's calls/sec over the same run's reference calls/sec (None
    when the report lacks either engine)."""
    per_engine = report["scenarios"][scenario]["per_engine"]
    if "turbo" not in per_engine or "reference" not in per_engine:
        return None
    denominator = float(per_engine["reference"]["calls_per_sec"])
    if denominator <= 0:
        return None
    return float(per_engine["turbo"]["calls_per_sec"]) / denominator


def compare(
    baseline: dict,
    candidate: dict,
    tolerance: float = 0.15,
    scenarios=DEFAULT_SCENARIOS,
) -> List[str]:
    """Regression messages (empty when the candidate is acceptable)."""
    failures = []
    for scenario in scenarios:
        if scenario not in baseline.get("scenarios", {}):
            continue  # nothing checked in to compare against
        if scenario not in candidate.get("scenarios", {}):
            failures.append(f"{scenario}: missing from candidate report")
            continue
        base_ratio = turbo_ratio(baseline, scenario)
        if base_ratio is None:
            continue  # baseline measured one engine only: no ratio to hold
        cand_ratio = turbo_ratio(candidate, scenario)
        if cand_ratio is None:
            failures.append(f"{scenario}: turbo or reference missing from "
                            f"candidate report")
        elif cand_ratio < base_ratio * (1.0 - tolerance):
            failures.append(
                f"{scenario}/turbo: speedup vs reference dropped "
                f"{1.0 - cand_ratio / base_ratio:.1%} "
                f"({base_ratio:.3f} -> {cand_ratio:.3f}, "
                f"tolerance {tolerance:.0%})"
            )
        elif base_ratio < cand_ratio * (1.0 - tolerance):
            failures.append(
                f"{scenario}/reference: slowed "
                f"{1.0 - base_ratio / cand_ratio:.1%} relative to turbo "
                f"({base_ratio:.3f} -> {cand_ratio:.3f}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


#: Hybrid speedup floors by report mode (full reports carry the
#: contract floor; quick runs amortize fewer jumps).
HYBRID_FLOOR_FULL = 5.0
HYBRID_FLOOR_QUICK = 2.0

#: Hybrid tolerance contract on the report's recorded max deviation.
HYBRID_DEVIATION_LIMITS = {
    "goodput_pct": 1.0,
    "myshare_points": 2.0,
    "outcome_pct": 2.0,
}


def check_hybrid(report: dict, floor: float = None) -> List[str]:
    """Failure messages for a BENCH_hybrid.json-shaped report."""
    if floor is None:
        floor = HYBRID_FLOOR_QUICK if report.get("quick") \
            else HYBRID_FLOOR_FULL
    failures = []
    for scenario, entry in sorted(report.get("scenarios", {}).items()):
        speedup = float(entry["speedup_hybrid_vs_turbo"])
        if speedup < floor:
            failures.append(
                f"hybrid/{scenario}: only {speedup:.2f}x over turbo "
                f"(floor {floor:.1f}x)"
            )
        if entry.get("jumps", 0) < 1:
            failures.append(f"hybrid/{scenario}: no jumps fired -- "
                            f"the speedup measures nothing")
        if not entry.get("attempted_exact", False):
            failures.append(f"hybrid/{scenario}: arrival replay "
                            f"diverged from turbo")
    worst = report.get("max_deviation", {})
    for key, limit in HYBRID_DEVIATION_LIMITS.items():
        value = float(worst.get(key, 0.0))
        if value > limit:
            failures.append(
                f"hybrid: max {key} {value} exceeds the tolerance "
                f"contract ({limit})"
            )
    return failures


#: The shards=1 degenerate run may cost at most this fraction more
#: wall-clock than the same run's serial turbo baseline.
SHARDED_OVERHEAD_LIMIT = 0.10


def check_sharded(report: dict, overhead_limit: float = None) -> List[str]:
    """Failure messages for a BENCH_sharded.json-shaped report."""
    if overhead_limit is None:
        overhead_limit = SHARDED_OVERHEAD_LIMIT
    failures = []
    for scenario, entry in sorted(report.get("scenarios", {}).items()):
        overhead = float(entry["shards1_overhead"])
        if overhead > overhead_limit:
            failures.append(
                f"sharded/{scenario}: shards=1 overhead {overhead:.1%} "
                f"over turbo exceeds the {overhead_limit:.0%} contract"
            )
        if not entry.get("identical", False):
            failures.append(f"sharded/{scenario}: merged results "
                            f"diverged from serial turbo")
        ladder = entry.get("ladder", {})
        one = ladder.get("1")
        if one is None or "skipped" in one:
            failures.append(f"sharded/{scenario}: no measured shards=1 "
                            f"rung -- the overhead gate has no input")
        for shards, rung in sorted(ladder.items(), key=lambda kv: int(kv[0])):
            if int(shards) <= 1 or "skipped" in rung:
                continue
            if rung.get("cross_messages", 0) < 1:
                failures.append(
                    f"sharded/{scenario}: {shards}-shard rung moved no "
                    f"cross-shard messages -- the partition is degenerate"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_engine.json",
                        help="checked-in report (default: BENCH_engine.json)")
    parser.add_argument("--candidate", required=True,
                        help="freshly measured report to gate")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max allowed turbo/reference ratio drift "
                             "(default: 0.15)")
    parser.add_argument("--scenarios", nargs="*",
                        default=list(DEFAULT_SCENARIOS),
                        help="scenarios to gate "
                             f"(default: {' '.join(DEFAULT_SCENARIOS)})")
    parser.add_argument("--hybrid", default=None,
                        help="hybrid-bench report to gate "
                             "(e.g. BENCH_hybrid.json)")
    parser.add_argument("--hybrid-floor", type=float, default=None,
                        help="min hybrid-vs-turbo speedup (default: "
                             f"{HYBRID_FLOOR_FULL} for full reports, "
                             f"{HYBRID_FLOOR_QUICK} for quick)")
    parser.add_argument("--sharded", default=None,
                        help="sharded-bench report to gate "
                             "(e.g. BENCH_sharded.json)")
    parser.add_argument("--sharded-overhead", type=float, default=None,
                        help="max shards=1 wall-clock overhead vs turbo "
                             f"(default: {SHARDED_OVERHEAD_LIMIT})")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.candidate) as handle:
        candidate = json.load(handle)

    for scenario in args.scenarios:
        if scenario in candidate.get("scenarios", {}):
            ratio = turbo_ratio(candidate, scenario)
            if ratio is None:
                continue
            ref = (turbo_ratio(baseline, scenario)
                   if scenario in baseline.get("scenarios", {}) else None)
            ref_text = f" (baseline {ref:.3f})" if ref else ""
            print(f"{scenario}: turbo vs reference = "
                  f"{ratio:.3f}{ref_text}")

    failures = compare(baseline, candidate, args.tolerance, args.scenarios)
    if args.hybrid:
        with open(args.hybrid) as handle:
            hybrid = json.load(handle)
        for scenario, entry in sorted(hybrid.get("scenarios", {}).items()):
            print(f"hybrid/{scenario}: "
                  f"{entry['speedup_hybrid_vs_turbo']:.2f}x over turbo, "
                  f"{entry['jumps']} jumps")
        failures.extend(check_hybrid(hybrid, args.hybrid_floor))
    if args.sharded:
        with open(args.sharded) as handle:
            sharded = json.load(handle)
        for scenario, entry in sorted(sharded.get("scenarios", {}).items()):
            print(f"sharded/{scenario}: shards=1 overhead "
                  f"{entry['shards1_overhead']:+.1%} vs turbo")
        failures.extend(check_sharded(sharded, args.sharded_overhead))
    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nno bench regression (turbo/reference ratio within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
