"""The paper-anchor registry and the ledger ``repro experiments`` prints,
on synthetic FigureData: no simulation runs here."""

import pathlib

import pytest

from repro.cli import main
from repro.harness import anchors
from repro.harness.anchors import PAPER_ANCHORS, Anchor
from repro.harness.experiments import EXPERIMENTS
from repro.harness.figures import FigureData

ANCHORS = [a for a in PAPER_ANCHORS.values() if isinstance(a, Anchor)]
FIG5_COLUMNS = ["config", "offered_cps", "throughput_cps", "trying_ratio"]
#: Figure 5 rows below the knee, every call stateful.
FIG5_ROWS = [["static", 6000, 6000, 1.0], ["servartuka", 6000, 6000, 1.0]]


def _figure(experiment, measured=(), rows=()):
    """Every anchor of ``experiment`` at its paper value, unless
    ``measured`` ({anchor id: value}) says otherwise."""
    return FigureData(experiment, "synthetic", FIG5_COLUMNS, rows, comparisons=[
        a.row(dict(measured).get(a.id, a.paper))
        for a in ANCHORS if a.experiment == experiment])


def _exit(monkeypatch, capsys, figure, experiment="fig5"):
    """(exit code, stderr's last line) of ``repro experiments
    <experiment>`` when it returns ``figure``."""
    monkeypatch.setitem(EXPERIMENTS, experiment, (lambda quality: figure, ""))
    code = main(["experiments", experiment, "--no-cache"])
    return code, capsys.readouterr().err.splitlines()[-1]


def test_in_band_exits_zero(monkeypatch, capsys):
    figure = _figure("fig5", {"fig5.static": 7260.0}, FIG5_ROWS)
    assert _exit(monkeypatch, capsys, figure)[0] == 0


def test_just_past_a_band_edge_exits_one_naming_it(monkeypatch, capsys):
    # 7,258 / 8,540 = 0.8499 < 0.85; the 5-35 % gain check still holds.
    figure = _figure("fig5", {"fig5.static": 7258.0}, FIG5_ROWS)
    code, last = _exit(monkeypatch, capsys, figure)
    assert code == 1 and last.endswith("anchors failed: fig5.static")


def test_a_failing_shape_check_exits_one(monkeypatch, capsys):
    figure = _figure("fig5", rows=FIG5_ROWS + [["servartuka", 7000, 6900, 0.5]])
    code, last = _exit(monkeypatch, capsys, figure)
    assert code == 1 and last.endswith("anchors failed: fig5.stateful")


#: Overload goodput per load multiple (0.5x..3x) on which every
#: overload check holds, the composed configs at 2x only.
OVERLOAD_GOODPUT = {
    "none": (4250, 8396, 4590, 3840, 2817),
    **{control: (4250, 7400, 7400, 7400, 7300)
       for control in ("rate", "window", "occupancy", "signal")},
    "servartuka/none": (3758,),
    "static/occupancy": (7400,),
    "servartuka/occupancy": (7838,),
}
#: Per-upstream (share, completion fraction) on the 75/25 fork at 2x.
OVERLOAD_FORK = {"fork/none": [(0.75, 0.15), (0.25, 0.36)],
                 "fork/window": [(0.75, 0.27), (0.25, 0.554)],
                 "fork/occupancy": [(0.75, 0.32), (0.25, 0.34)]}


def _overload(edits=(), series=OVERLOAD_FORK):
    """(rows, series) of an overload figure every check holds on, but
    for ``edits``: {(config, load_mult): {column: value}}."""
    edits = dict(edits)
    rows = []
    for config, goodputs in OVERLOAD_GOODPUT.items():
        mults = (2.0,) if "/" in config else (0.5, 1.0, 1.5, 2.0, 3.0)
        for mult, goodput in zip(mults, goodputs):
            retransmissions, rejected = (
                (29158, 0) if config == "none" else (0, 5000))
            row = [config, mult, 8500 * mult, goodput,
                   goodput / (8500 * mult), retransmissions, rejected]
            for column, value in edits.get((config, mult), {}).items():
                row[column] = value
            rows.append(row)
    return rows, series


#: Optgap rows ([family, proxies, het, lp, algorithm 2, gap]) every
#: optgap check holds on; ``_optgap`` sets chosen gaps.
OPTGAP_ROWS = [["chain", 4, 0.0, 10290, 10383, 0.0],
               ["chain", 4, 0.3, 8310, 8217, 0.011],
               ["chain", 8, 0.0, 7939, 7817, 0.015],
               ["mesh", 12, 0.0, 9625, 9675, 0.0],
               ["mesh", 51, 0.0, 36190, 36075, 0.003],
               ["tree", 7, 0.0, 11683, 11483, 0.017]]


def _optgap(gaps):
    """OPTGAP_ROWS with row ``i``'s gap set to ``gaps[i]``."""
    return [row[:5] + [gaps.get(i, row[5])] for i, row in enumerate(OPTGAP_ROWS)]


#: One rows table (or (rows, series)) per claim that breaks exactly
#: that claim.
BROKEN = {
    "ablation-placement.servartuka": [
        ["all-stateful (case i)", 9000], ["exit stateful (case ii)", 9000],
        ["entry stateful", 9500], ["servartuka", 8900]],
    "ablation-fork.front_state": [
        ["static, even split", 11000], ["static, 85/15 split", 9000],
        ["static front-stateful, 85/15", 10000],
        ["servartuka, 85/15", 9200]],
    "resilience.ordering": [
        ["static", 900, 850, 30, 0, 20, 60, 1.0],
        ["servartuka", 900, 860, 30, 0, 25, 30, 0.5],
        ["stateless", 900, 890, 0, 0, 40, 0, 0.0]],
    # 4,300 > 0.5 x the 8,396 peak.
    "overload.collapse": _overload({("none", 2.0): {3: 4300}}),
    # 8,396 > 3,000 < 3,840: uncontrolled goodput recovers at 2x.
    "overload.falls_past_peak": _overload({("none", 1.5): {3: 3000}}),
    # 6,500 < 0.9 x window's 7,400 peak.
    "overload.plateau": _overload({("window", 2.0): {3: 6500}}),
    # 4,000 < 1.5 x the uncontrolled 2,817 at 3x.
    "overload.beats_none": _overload({("signal", 3.0): {3: 4000}}),
    "overload.sheds": _overload({("rate", 2.0): {6: 0}}),
    # 3,000 x 10 > 29,158.
    "overload.retransmissions": _overload({("rate", 2.0): {5: 3000}}),
    # Composed 7,300 < call-shedding alone 7,400.
    "overload.composed": _overload(
        {("servartuka/occupancy", 2.0): {3: 7300}}),
    "overload.window_light": _overload(series=dict(
        OVERLOAD_FORK, **{"fork/window": [(0.75, 0.3), (0.25, 0.45)]})),
    "optgap.max": _optgap({0: 0.45}),
    "optgap.mean": _optgap({0: 0.2, 1: 0.2, 2: 0.2, 3: 0.2, 5: 0.2}),
    "optgap.flagship": _optgap({4: 0.25}),
}


@pytest.mark.parametrize("check", sorted(BROKEN))
def test_a_failing_claim_exits_one_naming_it(monkeypatch, capsys, check):
    experiment = PAPER_ANCHORS[check].experiment
    case = BROKEN[check]
    rows, series = case if isinstance(case, tuple) else (case, {})
    figure = FigureData(experiment, "synthetic",
                        [f"c{i}" for i in range(len(rows[0]))], rows,
                        series=series)
    code, last = _exit(monkeypatch, capsys, figure, experiment)
    assert code == 1 and last.endswith(f"anchors failed: {check}")


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_an_unbanded_anchor_never_fails(scale):
    unbanded = {a.id: a.paper * scale for a in ANCHORS if a.band is None}
    assert unbanded  # anti-vacuity
    results = {a.experiment: _figure(a.experiment, unbanded)
               for a in ANCHORS if a.id in unbanded}
    verdicts = {row[0]: row[-1] for row in anchors.ledger(results)}
    assert {verdicts[name] for name in unbanded} == {"unbanded"}


#: The paper's own experiments: the only ones whose numbers the paper
#: prints.
PAPER_EXPERIMENTS = {"fig3", "fig4", "lp", "fig5", "fig6", "fig7", "fig8",
                     "three-series"}


def test_every_anchor_is_a_number_the_paper_prints():
    """An Anchor's paper value comes from the paper; a budget the repo
    sets itself is a Check."""
    assert {a.experiment for a in ANCHORS} <= PAPER_EXPERIMENTS


def test_every_entry_names_an_experiment():
    assert {e.experiment for e in PAPER_ANCHORS.values()} <= set(EXPERIMENTS)
    assert len(PAPER_ANCHORS) == len(anchors._ENTRIES)  # ids are unique


def test_experiments_summary_is_the_registry():
    """EXPERIMENTS.md's Summary is a generated ledger: its fixed columns
    are the registry's rendering, row for row."""
    text = (pathlib.Path(__file__).resolve().parents[2]
            / "EXPERIMENTS.md").read_text()
    summary = text[text.index("\n## Summary\n") + 1:]
    table = [line[2:-2].split(" | ")
             for line in summary[:summary.index("\n## ")].splitlines()
             if line.startswith("| ")]
    assert table[0] == anchors.LEDGER_COLUMNS
    assert [row[:4] for row in table[1:]] == anchors.describe()
