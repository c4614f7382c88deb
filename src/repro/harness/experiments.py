"""Experiment orchestration: run every reproduction, export results.

This is the programmatic face of the benchmark suite: run any subset of
the paper's experiments at a chosen quality, get structured
:class:`~repro.harness.figures.FigureData` back, and export them as
JSON (for dashboards) or Markdown (the EXPERIMENTS.md format).

    from repro.harness.experiments import ExperimentSuite

    suite = ExperimentSuite()           # QUICK quality
    results = suite.run(["lp", "fig5"])
    suite.write_json(results, "results.json")
    suite.write_markdown(results, "EXPERIMENTS.md")
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.harness import figures as figure_mod
from repro.harness.figures import FigureData, Quality
from repro.harness.optgap import optgap_figure
from repro.harness.report import render_figure
from repro.harness.resilience import resilience_figure

#: Experiment id -> (figure function, short description).
EXPERIMENTS: Dict[str, tuple] = {
    "fig3": (figure_mod.figure3_profile,
             "CPU events per call by functionality mode"),
    "fig3-breakdown": (figure_mod.figure3_breakdown,
                       "measured per-functionality CPU split (repro.obs)"),
    "fig4": (figure_mod.figure4_utilization,
             "utilization vs load; stateful/stateless saturation"),
    "lp": (figure_mod.lp_optima,
           "section 4.1 LP optimum for two servers in series"),
    "fig5": (figure_mod.figure5_two_series,
             "two in series: static vs SERvartuka throughput"),
    "fig6": (figure_mod.figure6_response_times,
             "two in series: response times"),
    "fig7": (figure_mod.figure7_changing_load,
             "capacity vs external/internal traffic mix"),
    "fig8": (figure_mod.figure8_parallel,
             "three-server parallel fork"),
    "three-series": (figure_mod.three_series_text,
                     "three in series: static vs SERvartuka"),
    "resilience": (resilience_figure,
                   "call loss under proxy crashes, by state placement"),
    "overload": (figure_mod.overload_comparative,
                 "goodput under overload, per control policy"),
    "optgap": (optgap_figure,
               "LP-optimal vs Algorithm 2 on generated cluster topologies"),
}


class ExperimentSuite:
    """Run reproduction experiments and export their results."""

    def __init__(self, quality: Optional[Quality] = None):
        self.quality = quality or figure_mod.QUICK
        self.timings: Dict[str, float] = {}

    def available(self) -> List[str]:
        return list(EXPERIMENTS)

    def run(
        self,
        ids: Optional[Iterable[str]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, FigureData]:
        """Run the chosen experiments (all by default)."""
        wanted = list(ids) if ids is not None else self.available()
        unknown = [name for name in wanted if name not in EXPERIMENTS]
        if unknown:
            raise KeyError(f"unknown experiments: {unknown}")
        results: Dict[str, FigureData] = {}
        for name in wanted:
            function, _description = EXPERIMENTS[name]
            if progress is not None:
                progress(name)
            started = time.perf_counter()
            results[name] = function(self.quality)
            self.timings[name] = time.perf_counter() - started
        return results

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self, results: Dict[str, FigureData]) -> dict:
        """JSON-serializable structure of all results."""
        out = {
            "quality": self.quality.name,
            "scale": self.quality.scale,
            "experiments": {},
        }
        for name, figure in results.items():
            out["experiments"][name] = {
                "figure_id": figure.figure_id,
                "title": figure.title,
                "columns": figure.columns,
                "rows": figure.rows,
                "comparisons": [
                    {
                        "quantity": row[0],
                        "paper": row[1],
                        "measured": row[2],
                        "ratio": row[3],
                    }
                    for row in figure.comparisons
                ],
                "series": {
                    label: [[x, y] for x, y in points]
                    for label, points in figure.series.items()
                },
                "notes": figure.notes,
                "seconds": round(self.timings.get(name, 0.0), 2),
            }
        return out

    def write_json(self, results: Dict[str, FigureData], path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(results), handle, indent=2)

    def to_markdown(self, results: Dict[str, FigureData]) -> str:
        """Render an EXPERIMENTS.md-style report."""
        lines = [
            "# Experiments — paper vs measured",
            "",
            f"Quality preset: **{self.quality.name}** "
            f"(scale {self.quality.scale:g}; loads/results in "
            "paper-equivalent cps).",
            "",
        ]
        for name, figure in results.items():
            lines.append(f"## {figure.figure_id}: {figure.title}")
            lines.append("")
            if figure.description:
                lines.append(figure.description)
                lines.append("")
            if figure.comparisons:
                lines.append("| quantity | paper | measured | ratio |")
                lines.append("|---|---|---|---|")
                for quantity, paper, measured, ratio in figure.comparisons:
                    lines.append(
                        f"| {quantity} | {paper} | {measured} | {ratio} |"
                    )
                lines.append("")
            if figure.notes:
                lines.append(f"*{figure.notes}*")
                lines.append("")
        return "\n".join(lines)

    def write_markdown(self, results: Dict[str, FigureData], path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_markdown(results) + "\n")

    def render_all(self, results: Dict[str, FigureData]) -> str:
        """Plain-text rendering of every result (terminal report)."""
        return "\n\n".join(render_figure(f) for f in results.values())
