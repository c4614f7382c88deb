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


#: One rows table per claim that breaks exactly that claim.
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
}


@pytest.mark.parametrize("check", sorted(BROKEN))
def test_a_failing_claim_exits_one_naming_it(monkeypatch, capsys, check):
    experiment = PAPER_ANCHORS[check].experiment
    rows = BROKEN[check]
    figure = FigureData(experiment, "synthetic",
                        [f"c{i}" for i in range(len(rows[0]))], rows)
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
