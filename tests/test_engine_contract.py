"""The engine x feature contract (docs/ARCHITECTURE.md, "Engine ×
feature contract").

:data:`CONTRACT` classifies every pair of an engine in
``repro.sip.message.ENGINES`` and a feature in :data:`FEATURES`: either
the id of the test that runs the feature on that engine against an
oracle, or :data:`REFUSED` -- the engine rejects the combination with
one ``UnsupportedCombination`` where the feature enters, and
:data:`REFUSALS` triggers it here.  A new engine or feature fails this
module until it is classified, and the ARCHITECTURE table is this
mapping rendered.
"""

import functools
import multiprocessing
import pathlib
import subprocess
import sys

import pytest

import repro.api as api
from repro.cli import main
from repro.harness.parallel import _job_scenario
from repro.harness.runner import fingerprint_scenario
from repro.harness.runner import run_scenario as run_live
from repro.sim.faults import FaultSchedule
from repro.sim.shard import run_sharded_scenario
from repro.sip.message import ENGINES
from repro.workloads.scenarios import (
    ScenarioConfig,
    UnsupportedCombination,
    flash_crowd,
    n_series,
)
from repro.workloads.spec import ScenarioSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"
FLASH_CROWD_SPEC = REPO_ROOT / "examples" / "specs" / "flash_crowd.toml"

FEATURES = (
    "faults", "observe", "control", "registrar", "b2bua",
    "heavy_tail re-INVITE", "load profile", "spec file", "in-place drive",
)
REFUSED = "refused"

#: The knobs each engine runs with here: the sharded rung at two shards
#: (at one it is serial turbo with one window per phase).
ENGINE_KNOBS = {"reference": {}, "turbo": {}, "sharded": {"shards": 2}}

_DIFF = "tests/engine/test_differential.py::test_engines_bit_identical"
_FAULTS = "tests/engine/test_differential.py::test_resilience_bit_identical"
_OBSERVE = ("tests/obs/test_observe_differential.py::"
            "test_observe_on_is_bit_identical")
_CONTROL = ("tests/engine/test_differential_overload.py::"
            "test_controlled_engines_bit_identical[rate]")
_SPEC = ("tests/workloads/test_spec.py::TestThreeDoors::"
         "test_same_key_and_label")
_SHARDED = ("tests/engine/test_sharded_differential.py::"
            "test_sharded_families_bit_identical_to_turbo")

#: feature -> engine -> the covering test id, or REFUSED.
CONTRACT = {
    "faults": {"reference": _FAULTS, "turbo": _FAULTS, "sharded": REFUSED},
    "observe": {
        "reference": f"{_OBSERVE}[7-n_series-reference]",
        "turbo": f"{_OBSERVE}[7-n_series]",
        "sharded": REFUSED,
    },
    "control": {
        "reference": _CONTROL, "turbo": _CONTROL, "sharded": REFUSED},
    "registrar": {
        "reference": f"{_DIFF}[register_churn_digest]",
        "turbo": f"{_DIFF}[register_churn_digest]",
        "sharded": f"{_SHARDED}[register_churn]",
    },
    "b2bua": {
        "reference": f"{_DIFF}[b2bua_chain]",
        "turbo": f"{_DIFF}[b2bua_chain]",
        "sharded": f"{_SHARDED}[b2bua_chain]",
    },
    "heavy_tail re-INVITE": {
        "reference": f"{_DIFF}[heavy_tail_reinvite]",
        "turbo": f"{_DIFF}[heavy_tail_reinvite]",
        "sharded": f"{_SHARDED}[heavy_tail]",
    },
    "load profile": {
        "reference": f"{_DIFF}[flash_crowd_restart]",
        "turbo": f"{_DIFF}[flash_crowd_restart]",
        "sharded": REFUSED,
    },
    "spec file": {
        "reference": f"{_SPEC}[heavy_tail-load-and-config]",
        "turbo": f"{_SPEC}[heavy_tail-none]",
        "sharded": f"{_SHARDED}[heavy_tail]",
    },
    "in-place drive": {
        "reference": f"{_DIFF}[two_series]",
        "turbo": f"{_DIFF}[two_series]",
        "sharded": REFUSED,
    },
}

#: feature -> what uses it, given a ScenarioConfig factory.
REFUSALS = {
    "faults": lambda config: n_series(
        2, 3000.0, config=config()).install_faults(
            FaultSchedule().crash(1.0, "P1")),
    "observe": lambda config: config(observe="cpu"),
    "control": lambda config: config(control="rate"),
    "load profile": lambda config: flash_crowd(3000.0, config=config()),
    "in-place drive": lambda config: fingerprint_scenario(
        n_series(2, 3000.0, config=config()), 1.0),
}

REFUSED_CELLS = [
    (feature, engine) for feature in FEATURES for engine in ENGINES
    if CONTRACT[feature][engine] == REFUSED
]


def render() -> str:
    """The contract as the markdown table docs/ARCHITECTURE.md holds."""
    lines = [
        "| feature | " + " | ".join(ENGINES) + " |",
        "|---" * (len(ENGINES) + 1) + "|",
    ]
    for feature in FEATURES:
        cells = [
            "**refused**" if cell == REFUSED
            else f"`{cell[len('tests/'):]}`"
            for cell in (CONTRACT[feature][engine] for engine in ENGINES)
        ]
        lines.append(f"| {feature} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def test_every_cell_is_classified():
    assert tuple(CONTRACT) == FEATURES
    assert set(ENGINE_KNOBS) == set(ENGINES)
    for feature, row in CONTRACT.items():
        assert set(row) == set(ENGINES), feature
        for cell in row.values():
            assert cell == REFUSED or cell.startswith("tests/"), cell
    assert set(REFUSALS) == {feature for feature, _ in REFUSED_CELLS}


def test_cited_tests_exist():
    cited = {cell for row in CONTRACT.values() for cell in row.values()
             if cell != REFUSED}
    files = sorted({cell.split("::")[0] for cell in cited})
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "-o", "addopts=", "-q",
         "-p", "no:cacheprovider", "--collect-only", *files],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert not sorted(cited - set(collected))


@pytest.mark.parametrize(
    "feature, engine", REFUSED_CELLS,
    ids=[f"{engine}-{feature}" for feature, engine in REFUSED_CELLS])
def test_refused_cell_raises_one_line(monkeypatch, feature, engine):
    monkeypatch.setenv("REPRO_SHARD_DRIVER", "inline")
    config = functools.partial(
        ScenarioConfig, engine=engine, scale=100.0, **ENGINE_KNOBS[engine])
    with pytest.raises(UnsupportedCombination) as refused:
        REFUSALS[feature](config)
    assert "\n" not in str(refused.value)


def test_architecture_table_is_the_contract():
    assert render() in ARCHITECTURE.read_text()


# ---------------------------------------------------------------------------
# Each refusal leaves through every door that reaches it, as one line,
# with no shard worker left running.
# ---------------------------------------------------------------------------
_SHARDED_RUN = dict(rate=3000.0, scale=100.0, duration=1.0, warmup=0.5,
                    engine="sharded", shards=2, cache=False)
PYTHON_DOORS = {
    "api-observe": lambda: api.run_scenario(
        "n_series", n=2, observe="cpu", **_SHARDED_RUN),
    "api-control": lambda: api.run_scenario(
        "n_series", n=2, control="rate", **_SHARDED_RUN),
    "api-faults": lambda: api.run_scenario(
        "n_series", n=2, faults=FaultSchedule().crash(0.5, "P1"),
        **_SHARDED_RUN),
    "api-load-profile": lambda: api.run_scenario(
        "flash_crowd", **_SHARDED_RUN),
    "live-in-place": lambda: run_live(
        api.make_scenario("n_series", n=2, rate=3000.0,
                          engine="sharded", shards=2),
        duration=1.0, warmup=0.5),
    "spec-observe": lambda: ScenarioSpec(
        "n_series", 3000.0, params={"n": 2},
        config={"engine": "sharded", "shards": 2, "observe": "cpu"}),
    "spec-load-profile": lambda: _job_scenario(
        ScenarioSpec.from_path(FLASH_CROWD_SPEC).run_spec(
            engine="sharded", shards=2).payload),
}


@pytest.mark.parametrize("driver", ["inline", "process"])
@pytest.mark.parametrize("door", sorted(PYTHON_DOORS))
def test_refusal_through_python_doors(monkeypatch, door, driver):
    monkeypatch.setenv("REPRO_SHARD_DRIVER", driver)
    with pytest.raises(UnsupportedCombination) as refused:
        PYTHON_DOORS[door]()
    assert "\n" not in str(refused.value)
    assert multiprocessing.active_children() == []


def test_refused_spec_starts_no_shard_worker(monkeypatch):
    """The process driver builds its own probe before the first worker,
    so a scenario the engine refuses forks nothing."""
    starts = []
    real_start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self.name)
        return real_start(self)

    monkeypatch.setenv("REPRO_SHARD_DRIVER", "process")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting_start)
    payload = ScenarioSpec.from_path(FLASH_CROWD_SPEC).run_spec(
        engine="sharded", shards=2).payload
    with pytest.raises(UnsupportedCombination, match="load profiles"):
        run_sharded_scenario(payload)
    assert starts == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("flags, cause", [
    (["--topology", "series", "--observe", "cpu"], "observe="),
    (["--topology", "series", "--control", "rate"], "overload control"),
    (["--spec", str(FLASH_CROWD_SPEC)], "load profiles"),
], ids=["observe", "control", "load-profile"])
def test_refusal_through_repro_run(capsys, flags, cause):
    rc = main(["run", *flags, "--engine", "sharded", "--shards", "2",
               "--duration", "1", "--warmup", "0.5", "--no-cache"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro run: error: ") and cause in line
    assert multiprocessing.active_children() == []
