"""Compare two suite reports by the benchmark's own bounds.

``python3 benchmarks/e2e/compare.py A.json B.json`` prints one row per
(workload, metric) with both medians, the change and the run-to-run
spread, and a verdict:

- ``same`` / ``better`` / ``worse`` -- B's median moved by less / more
  than the metric's bound in its good / bad direction;
- ``unresolved`` -- the spread of either side is wider than the bound,
  unless every run of one side beats every run of the other;
- ``identical`` / ``differs`` -- for exact quantities (fingerprints,
  simulated figures, event and call counts), compared for equality.

Per-layer host measurements have no bound; their rows are informative
(``-``).  Exit status is non-zero on any ``worse`` or ``differs`` or if
B's ``failed_share`` is higher than A's.  This is the tool the A/A
acceptance check and every later performance claim use.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

import metrics as M


def spread(summary: dict) -> float:
    """Run-to-run spread as a share of the median: between the
    quartiles (between min and max below four samples)."""
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(name: str, a: dict, b: dict, bound: Optional[float]) -> str:
    """Verdict for one host-measured metric; ``a`` is the base."""
    if bound is None:
        return "-"
    sign = 1.0 if M.BETTER[name] == "lower" else -1.0
    a_values = [sign * v for v in a["values"]]
    b_values = [sign * v for v in b["values"]]  # lower is now better
    if max(spread(a), spread(b)) > bound:
        if max(b_values) < min(a_values):
            return "better"
        if min(b_values) > max(a_values):
            return "worse"
        return "unresolved"
    base = sign * a["median"]
    change = (sign * b["median"] - base) / abs(base) if base else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload, base in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        rows.append({
            "workload": workload, "metric": "failed_share",
            "a": base["failed_share"], "b": other["failed_share"],
            "verdict": ("worse" if other["failed_share"]
                        > base["failed_share"] else "same"),
        })
        for name, value in base["exact"].items():
            if name not in other["exact"]:
                continue
            rows.append({
                "workload": workload, "metric": name,
                "a": value, "b": other["exact"][name],
                "verdict": ("identical" if value == other["exact"][name]
                            else "differs"),
            })
        for name, summary in base["metrics"].items():
            if name not in other["metrics"]:
                continue
            theirs = other["metrics"][name]
            rows.append({
                "workload": workload, "metric": name,
                "a": summary["median"], "b": theirs["median"],
                "spread_a": spread(summary), "spread_b": spread(theirs),
                "verdict": verdict(name, summary, theirs,
                                   M.BOUNDS.get(name)),
            })
    return rows


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)[:16]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows = compare(*reports)
    for row in rows:
        change = ""
        if isinstance(row["a"], (int, float)) and row["a"] and (
                "spread_a" in row):
            change = (f"{(row['b'] - row['a']) / abs(row['a']):+.1%} "
                      f"(spread {row['spread_a']:.1%} / "
                      f"{row['spread_b']:.1%})")
        print(f"{row['workload']:13s} {row['metric']:40s} "
              f"{_format(row['a']):>16s} {_format(row['b']):>16s} "
              f"{change:34s} {row['verdict']}")
    bad = [row for row in rows if row["verdict"] in ("worse", "differs")]
    print(f"\n{len(rows)} rows, {len(bad)} worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
