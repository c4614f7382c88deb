"""The paper's anchors: every number and shape the evaluation is held to.

An :class:`Anchor` is one paper-vs-measured row of one experiment: a
number the paper prints and an optional band on ``measured / paper``.
A :class:`Check` is a named claim about a whole figure (an ordering, a
gain, a bound on every row below a knee).  The rule: every budget the
repo sets itself (overload, optgap, ablations, resilience) is a check,
never an anchor, so the "paper" column holds only the paper's numbers.
The figure functions build their comparison rows from the registry, every
``repro experiments`` run prints the :func:`ledger` of what it ran and
exits 1 naming a failed id, and the tests read pinned paper values and
the EXPERIMENTS.md Summary columns (:func:`describe`) from it.  The
paper / measured / ratio form follows Montazerolghaem & Yaghmaee's SIP
overload-control testbed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.costmodel import FIG3_TOTALS
from repro.harness.report import format_cell, format_table


class Anchor(NamedTuple):
    id: str
    experiment: str
    #: The comparison row's label in the experiment's FigureData.
    quantity: str
    paper: float
    #: Inclusive (low, high) bounds on measured / paper; no band at all
    #: reports without gating.
    band: Optional[Tuple[float, float]] = None

    def row(self, measured: float, shown=None):
        """[quantity, paper, shown, measured / paper]: a comparison row."""
        return [self.quantity, self.paper,
                measured if shown is None else shown,
                round(measured / self.paper, 3)]


class Check(NamedTuple):
    id: str
    experiment: str
    #: The claim, as the ledger's quantity column prints it.
    quantity: str
    holds: Callable[[object], bool]


def _p95_by_config(figure) -> Dict[str, List[tuple]]:
    """{config: [(offered, p95 ms), ...]} from Figure 6's rows."""
    series: Dict[str, List[tuple]] = {}
    for row in figure.rows:
        series.setdefault(row[0], []).append((row[1], row[3]))
    return series


def _fig3_ordering(figure) -> bool:
    measured = {row[0]: row[3] for row in figure.rows}
    values = [measured[mode] for mode in FIG3_TOTALS]
    return values == sorted(values)


def _fig4_linear(figure) -> bool:
    stateful = figure.measured("stateful saturation cps")
    stateless = figure.measured("stateless saturation cps")
    for mode, series in figure.series.items():
        anchor = stateful if "stateful" in mode else stateless
        for offered, utilization in series:
            predicted = offered / anchor
            if predicted < 0.85 and abs(utilization - predicted) >= 0.12:
                return False
    return True


def _gain_within(low: float, high: float) -> Callable[[object], bool]:
    def holds(figure) -> bool:
        static = figure.measured("static saturation")
        dynamic = figure.measured("servartuka saturation")
        return dynamic > static and low <= dynamic / static - 1.0 <= high
    return holds


def _stateful_below(knee: str, fraction: float, config=None):
    """Every row of ``config`` (all configs by default) offered at most
    ``fraction`` x the ``knee`` saturation keeps ``trying > 0.95``."""
    def holds(figure) -> bool:
        limit = fraction * figure.measured(knee)
        return all(
            row[3] > 0.95 for row in figure.rows
            if (config is None or row[0] == config) and row[1] <= limit
        )
    return holds


def _fig6_low_load(figure) -> bool:
    low_loads = [[p95 for offered, p95 in rows if offered < 7000]
                 for rows in _p95_by_config(figure).values()]
    return all(low and max(low) < 50 for low in low_loads)


def _fig6_bounded(figure) -> bool:
    series = _p95_by_config(figure)
    return all(
        max(p95 for offered, p95 in series[config] if offered <= 8200) < 200
        for config in ("stateful", "servartuka")
    )


def _fig6_spike(figure) -> bool:
    stateless = _p95_by_config(figure)["stateless"]
    low = max(p95 for offered, p95 in stateless if offered < 7000)
    return max(p95 for _offered, p95 in stateless) > 4 * max(low, 1.0)


def _fig7_gain_shape(figure) -> bool:
    gains = {row[0]: row[4] for row in figure.rows}
    delegable = [gain for fraction, gain in gains.items() if fraction >= 0.5]
    return (bool(delegable) and min(delegable) > gains.get(0.0, 1.0)
            and max(delegable) >= 1.04
            and (0.8 not in gains or gains[0.8] >= 0.97 * max(gains.values())))


def _auth(figure) -> Dict[str, Tuple[float, float]]:
    return {row[0][0]: (row[1], row[2]) for row in figure.rows}


def _by_label(figure) -> Dict[str, float]:
    """{first column: second column} of a two-column figure's rows."""
    return {row[0]: row[1] for row in figure.rows}


def _resilience_ordering(figure) -> bool:
    lost = {row[0]: row[3] for row in figure.rows}
    return lost["static"] > lost["servartuka"] > lost["stateless"]


def _fork_front_state(figure) -> bool:
    capacity = _by_label(figure)
    best_static_uneven = max(capacity["static, 85/15 split"],
                             capacity["static front-stateful, 85/15"])
    return capacity["servartuka, 85/15"] >= 0.93 * best_static_uneven


#: Uncontrolled goodput at 2x falls below this fraction of its own
#: peak (congestion collapse; Shen, Schulzrinne & Nahum's shape).
OVERLOAD_COLLAPSE = 0.5
#: Every overload control holds this fraction of its own peak at 2x:
#: its own, because a controller pays an admission tax at the knee
#: (target utilization < 1) and plateaus below the uncontrolled peak.
OVERLOAD_PLATEAU = 0.9


def _overload(figure) -> Dict[str, Dict[float, list]]:
    """{config: {load multiple: row}} from the overload figure's rows
    ([config, load_mult, offered, goodput, ratio, retransmissions,
    rejected]): the sweep's curves and the composed rows at 2x."""
    curves: Dict[str, Dict[float, list]] = {}
    for row in figure.rows:
        curves.setdefault(row[0], {})[row[1]] = row
    return curves


def _peak(curve: Dict[float, list]) -> float:
    return max(row[3] for row in curve.values())


def _collapse(figure) -> bool:
    none = _overload(figure)["none"]
    at_2x = none[2.0][3]
    return at_2x < OVERLOAD_COLLAPSE * _peak(none) and none[3.0][3] <= 1.05 * at_2x


def _falls_past_peak(figure) -> bool:
    goodputs = [row[3] for _mult, row in sorted(_overload(figure)["none"].items())]
    past = goodputs[goodputs.index(max(goodputs)):]
    return len(past) > 1 and all(a > b for a, b in zip(past, past[1:]))


def _each_control(claim: Callable[[dict, dict], bool]):
    """Holds when ``claim(curve, uncontrolled curve)`` holds for every
    control the sweep ran (the composed ``policy/control`` rows are not
    sweep curves)."""
    def holds(figure) -> bool:
        curves = _overload(figure)
        none = curves.pop("none")
        controls = [curve for name, curve in curves.items() if "/" not in name]
        return bool(controls) and all(claim(curve, none) for curve in controls)
    return holds


def _composed(figure) -> bool:
    curves = _overload(figure)
    composed = curves["servartuka/occupancy"][2.0][3]
    return all(composed > curves[alone][2.0][3]
               for alone in ("static/occupancy", "servartuka/none"))


def _optgap_sorted(figure) -> bool:
    keys = [tuple(row[:3]) for row in figure.rows]
    return bool(keys) and keys == sorted(keys)


_PAPER_BAND = (0.85, 1.15)

#: The registry, grouped by experiment: each experiment's anchors, then
#: its shape checks.
_ENTRIES = (
    *(Anchor(f"fig3.{mode}", "fig3", f"{mode} events/call", total, (0.7, 1.3))
      for mode, total in FIG3_TOTALS.items()),
    Check("fig3.ordering", "fig3",
          "simulated events/call rise in mode order no_lookup..authentication",
          _fig3_ordering),
    Anchor("fig4.t_sf", "fig4", "stateful saturation cps", 10360.0, _PAPER_BAND),
    Anchor("fig4.t_sl", "fig4", "stateless saturation cps", 12300.0, _PAPER_BAND),
    Check("fig4.stateless_above", "fig4",
          "stateless saturation > 1.1 x stateful",
          lambda figure: figure.measured("stateless saturation cps")
          > 1.1 * figure.measured("stateful saturation cps")),
    Check("fig4.linear", "fig4",
          "utilization within 0.12 of offered/saturation below 0.85",
          _fig4_linear),
    Anchor("lp.optimum", "lp", "two-series LP optimum", 11240.0, (0.99, 1.01)),
    Anchor("lp.share", "lp", "per-node stateful share", 5620.0, (0.99, 1.01)),
    Anchor("fig5.static", "fig5", "static saturation", 8540.0, _PAPER_BAND),
    Anchor("fig5.servartuka", "fig5", "servartuka saturation", 9790.0,
           _PAPER_BAND),
    Anchor("fig5.gain", "fig5", "gain (ratio)", 9790.0 / 8540.0),
    Check("fig5.gain_band", "fig5", "servartuka beats static by 5-35 %",
          _gain_within(0.05, 0.35)),
    Check("fig5.stateful", "fig5",
          "servartuka trying > 0.95 up to 0.9 x its saturation",
          _stateful_below("servartuka saturation", 0.9, "servartuka")),
    Anchor("fig6.stateful_p95", "fig6", "stateful p95 ms below knee", 200.0),
    Anchor("fig6.servartuka_p95", "fig6", "servartuka p95 ms below its knee",
           200.0),
    Check("fig6.low_load", "fig6", "every config p95 < 50 ms below 7,000 cps",
          _fig6_low_load),
    Check("fig6.bounded", "fig6",
          "stateful and servartuka p95 < 200 ms up to 8,200 cps",
          _fig6_bounded),
    Check("fig6.stateless_spike", "fig6",
          "stateless peak p95 > 4 x its p95 below 7,000 cps", _fig6_spike),
    Anchor("fig7.peak_fraction", "fig7", "best gain fraction", 0.8),
    Anchor("fig7.static", "fig7", "static cps at mix 0.8", 9540.0),
    Anchor("fig7.servartuka", "fig7", "servartuka cps at mix 0.8", 11410.0,
           _PAPER_BAND),
    Anchor("fig7.lp", "fig7", "LP bound at mix 0.8", 11960.0),
    Check("fig7.no_loss", "fig7", "servartuka >= 0.97 x static at every mix",
          lambda figure: all(row[2] >= 0.97 * row[1] for row in figure.rows)),
    Check("fig7.under_lp", "fig7", "servartuka <= 1.08 x LP at every mix",
          lambda figure: all(row[2] <= row[3] * 1.08 for row in figure.rows)),
    Check("fig7.gain_shape", "fig7",
          "gain at mixes >= 0.5 above mix 0, peak >= 1.04, 0.8 near the best",
          _fig7_gain_shape),
    Anchor("fig8.static", "fig8", "static saturation", 11990.0, _PAPER_BAND),
    Anchor("fig8.servartuka", "fig8", "servartuka saturation", 12830.0),
    Check("fig8.parity", "fig8", "servartuka >= 0.97 x static",
          lambda figure: figure.measured("servartuka saturation")
          >= 0.97 * figure.measured("static saturation")),
    Check("fig8.stateful", "fig8",
          "trying > 0.95 up to 0.85 x static saturation",
          _stateful_below("static saturation", 0.85)),
    Anchor("three-series.static", "three-series", "static saturation", 8780.0,
           (0.8, 1.2)),
    Anchor("three-series.servartuka", "three-series", "servartuka saturation",
           10180.0, (0.8, 1.2)),
    Check("three-series.gain_band", "three-series",
          "servartuka beats static by 4-35 %", _gain_within(0.04, 0.35)),
    # Beyond the paper: who loses calls when the stateful proxy crashes.
    Check("resilience.ordering", "resilience",
          "calls lost: static > servartuka > stateless",
          _resilience_ordering),
    # Beyond the paper: the overload family against the shapes of the
    # overload-control literature (PAPERS.md), at 0.5x..3x capacity.
    Check("overload.collapse", "overload",
          f"uncontrolled 2x < {OVERLOAD_COLLAPSE:g} x its peak, 3x <= 1.05 x 2x",
          _collapse),
    Check("overload.falls_past_peak", "overload",
          "uncontrolled goodput strictly decreasing past its peak",
          _falls_past_peak),
    Check("overload.plateau", "overload",
          f"every control at 2x >= {OVERLOAD_PLATEAU:g} x its own peak",
          _each_control(lambda curve, none:
                        curve[2.0][3] >= OVERLOAD_PLATEAU * _peak(curve))),
    Check("overload.beats_none", "overload",
          "every control > 1.5 x uncontrolled goodput at 2x and 3x",
          _each_control(lambda curve, none: all(
              curve[mult][3] > 1.5 * none[mult][3] for mult in (2.0, 3.0)))),
    Check("overload.sheds", "overload", "every control rejects calls at 2x",
          _each_control(lambda curve, none: curve[2.0][6] > 0)),
    Check("overload.retransmissions", "overload",
          "every control's 2x retransmissions x 10 < uncontrolled",
          _each_control(lambda curve, none: curve[2.0][5] * 10 < none[2.0][5])),
    Check("overload.composed", "overload",
          "servartuka + occupancy beats either mechanism alone at 2x",
          _composed),
    # The 75/25 fork's light upstream: (share, completion fraction).
    Check("overload.window_light", "overload",
          "window light-upstream completion fraction at 2x >= 0.5",
          lambda figure: dict(figure.series["fork/window"])[0.25] >= 0.5),
    # Beyond the paper: budgets on Algorithm 2's optimality gap.
    Check("optgap.max", "optgap", "max gap across grid <= 0.40",
          lambda figure: max(row[5] for row in figure.rows) <= 0.40),
    Check("optgap.mean", "optgap", "mean gap across grid <= 0.15",
          lambda figure: sum(row[5] for row in figure.rows)
          <= 0.15 * len(figure.rows)),
    Check("optgap.flagship", "optgap", ">=50-proxy flagship gap <= 0.20",
          lambda figure: max(row[5] for row in figure.rows
                             if row[1] >= 50) <= 0.20),
    Check("optgap.sorted", "optgap",
          "rows present, sorted by (family, proxies, heterogeneity)",
          _optgap_sorted),
    Check("optgap.clamped", "optgap", "every gap in [0, 1]",
          lambda figure: all(0.0 <= row[5] <= 1.0 for row in figure.rows)),
    Check("optgap.flagship_cell", "optgap", "a cell has >= 50 proxies",
          lambda figure: any(row[1] >= 50 for row in figure.rows)),
    Check("auth.dynamic_wins", "auth", "capacity B > A",
          lambda figure: _auth(figure)["B"][0] > _auth(figure)["A"][0]),
    Check("auth.distributed_capacity", "auth", "capacity C >= 0.95 x B",
          lambda figure: _auth(figure)["C"][0] >= 0.95 * _auth(figure)["B"][0]),
    Check("auth.past_knee", "auth", "goodput at 1.15x: C >= 0.80 x B",
          lambda figure: _auth(figure)["C"][1] >= 0.80 * _auth(figure)["B"][1]),
    # Beyond the paper: the ablations of DESIGN.md section 5.
    Check("ablation-placement.servartuka", "ablation-placement",
          "servartuka >= all-stateful (case i)",
          lambda figure: _by_label(figure)["servartuka"]
          >= _by_label(figure)["all-stateful (case i)"]),
    Check("ablation-placement.entry", "ablation-placement",
          "entry stateful >= 0.97 x exit stateful (case ii)",
          lambda figure: _by_label(figure)["entry stateful"]
          >= 0.97 * _by_label(figure)["exit stateful (case ii)"]),
    Check("ablation-period.flat", "ablation-period",
          "max throughput < 1.35 x min across periods",
          lambda figure: max(row[1] for row in figure.rows)
          < 1.35 * min(row[1] for row in figure.rows)),
    Check("ablation-headroom.rows", "ablation-headroom",
          "one row per headroom (3)", lambda figure: len(figure.rows) == 3),
    Check("ablation-via.decreasing", "ablation-via",
          "capacity strictly decreasing in via_overhead",
          lambda figure: len(figure.rows) > 1 and all(
              a[2] > b[2] for a, b in zip(figure.rows, figure.rows[1:]))),
    Check("ablation-fork.front_state", "ablation-fork",
          "servartuka 85/15 >= 0.93 x best static 85/15", _fork_front_state),
)

#: Every anchor and shape check by id, in registry order.
PAPER_ANCHORS: Dict[str, Union[Anchor, Check]] = {
    entry.id: entry for entry in _ENTRIES
}


def _band(band) -> str:
    return "-" if band is None else "{:g}..{:g}".format(*band)


def _entries(experiments=None) -> list:
    """Registry entries of the given experiments (all by default)."""
    return [entry for entry in PAPER_ANCHORS.values()
            if experiments is None or entry.experiment in experiments]


def describe(experiments=None) -> List[List[str]]:
    """[id, quantity, paper, band] per entry: the ledger's fixed columns."""
    return [
        [entry.id, entry.quantity, format_cell(entry.paper), _band(entry.band)]
        if isinstance(entry, Anchor) else [entry.id, entry.quantity, "-", "-"]
        for entry in _entries(experiments)
    ]


def ledger(results) -> List[list]:
    """One row per anchor and check of the experiments in ``results``
    (``{experiment id: FigureData}``): the fixed columns of
    :func:`describe`, then measured, ratio and a verdict -- ``ok``,
    ``FAIL`` or, for an anchor without a band, ``unbanded``."""
    rows = []
    for fixed, entry in zip(describe(results), _entries(results)):
        figure = results[entry.experiment]
        if isinstance(entry, Check):
            try:
                holds = entry.holds(figure)
            except (KeyError, ValueError):  # a row the claim needs is gone
                holds = False
            rows.append(fixed + ["-", "-", "ok" if holds else "FAIL"])
            continue
        measured = figure.measured(entry.quantity)
        ratio = measured / entry.paper
        verdict = "unbanded"
        if entry.band is not None:
            low, high = entry.band
            verdict = "ok" if low <= ratio <= high else "FAIL"
        rows.append(fixed + [measured, round(ratio, 3), verdict])
    return rows


LEDGER_COLUMNS = ["id", "quantity", "paper", "band", "measured", "ratio",
                  "verdict"]


def render(rows: List[list]) -> str:
    """The ledger as the terminal prints it."""
    return format_table(LEDGER_COLUMNS, rows, title="== Paper anchors ==")


def markdown(rows: List[list]) -> List[str]:
    """The ledger as a Markdown table (the EXPERIMENTS.md Summary)."""
    lines = ["| " + " | ".join(map(format_cell, row)) + " |"
             for row in [LEDGER_COLUMNS, *rows]]
    return lines[:1] + ["|" + "---|" * len(LEDGER_COLUMNS)] + lines[1:]
