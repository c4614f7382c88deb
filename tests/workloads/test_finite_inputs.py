"""A non-finite rate, scale or run window is refused where it is owned.

NaN slips through ``value <= 0`` and infinity turns into a zero mean or
an overflow deep inside a run, so each constructor that owns one of
these numbers rejects it with ``math.isfinite`` and names the field.
"""

import pytest

from repro.cli import main
from repro.servers.uac import CallGeneratorConfig
from repro.sim.rng import RngStream
from repro.workloads.callgen import LoadStep
from repro.workloads.scenarios import ScenarioConfig
from repro.workloads.spec import ScenarioSpec

NON_FINITE = [float("nan"), float("inf")]


def _spec(**override):
    kwargs = dict(builder="single_proxy", rate=1000.0, duration=2.0,
                  warmup=1.0, drain=0.0)
    return ScenarioSpec(**dict(kwargs, **override))


CONSTRUCTORS = {
    "ScenarioSpec.rate": ("rate", lambda v: _spec(rate=v)),
    "ScenarioSpec.duration": ("duration", lambda v: _spec(duration=v)),
    "ScenarioSpec.warmup": ("warmup", lambda v: _spec(warmup=v)),
    "ScenarioSpec.drain": ("drain", lambda v: _spec(drain=v)),
    "ScenarioConfig.scale": ("scale", lambda v: ScenarioConfig(scale=v)),
    "CallGeneratorConfig.rate": (
        "rate", lambda v: CallGeneratorConfig(v, "P1", ["sip:u@d"])),
    "LoadStep.rate": ("rate", lambda v: LoadStep(v, 1.0)),
    "RngStream.exponential": ("mean", lambda v: RngStream(1).exponential(v)),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
@pytest.mark.parametrize("where", sorted(CONSTRUCTORS))
def test_constructor_rejects_non_finite(where, value):
    field, build = CONSTRUCTORS[where]
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        build(value)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["rate", "scale", "duration", "warmup"])
def test_cli_non_finite_flag_is_one_line_exit_2(capsys, flag, value):
    rc = main(["run", "--topology", "series", "--nodes", "2",
               "--policy", "static", "--no-cache", "-j", "1", "--json",
               f"--{flag}", value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro run: error: ") and flag in line
