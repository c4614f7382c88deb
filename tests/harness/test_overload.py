"""Overload-experiment regressions: collapse, control, composition.

Runs the critical subset of the ``overload`` experiment family at its
pinned configuration (:func:`repro.harness.figures.overload_config`)
and asserts the headline claims:

- without control the two-series chain congestion-collapses: goodput
  at 2x offered load falls below 50% of the peak;
- with rate-based (AIMD) control the chain holds >= 90% of its own
  curve peak at 2x (a flat plateau instead of a cliff);
- SERvartuka state-shedding composed with call-shedding beats either
  mechanism alone at 2x;
- the no-control/rate goodput curve matches a golden snapshot
  (``--update-golden`` to rebless);
- the dormant-overhead contract: ``control=None`` keeps the scenario
  payload free of a ``"control"`` key and leaves two pre-existing
  run-cache keys byte-identical to their pre-control values.
"""

import os

import pytest

from repro.harness import figures as figure_mod
from repro.harness.anchors import OVERLOAD_COLLAPSE, OVERLOAD_PLATEAU
from repro.harness.figures import QUICK, overload_config
from repro.harness.parallel import (
    SpecTemplate,
    build_scenario,
    execution,
    run_specs,
    scenario_spec,
)
from repro.harness.runner import RunResult
from repro.workloads.scenarios import ScenarioConfig

MULTS = (0.5, 1.0, 1.5, 2.0, 3.0)
ANCHOR = figure_mod.OVERLOAD_ANCHOR
DURATION = figure_mod.OVERLOAD_DURATION
WARMUP = figure_mod.OVERLOAD_WARMUP


def _spec(mult: float, policy: str, control):
    return scenario_spec(
        "n_series", rate=ANCHOR * mult,
        config=overload_config(QUICK, control=control),
        duration=DURATION, warmup=WARMUP,
        label=f"test-overload/{policy}/{control or 'none'}@{mult:g}x",
        n=2, policy=policy,
    )


@pytest.fixture(scope="module")
def overload_runs():
    """All simulation points this module asserts on, fanned out once."""
    specs = {}
    for mult in MULTS:
        specs[("static", None, mult)] = _spec(mult, "static", None)
        specs[("static", "rate", mult)] = _spec(mult, "static", "rate")
    specs[("servartuka", None, 2.0)] = _spec(2.0, "servartuka", None)
    specs[("static", "occupancy", 2.0)] = _spec(2.0, "static", "occupancy")
    specs[("servartuka", "occupancy", 2.0)] = _spec(
        2.0, "servartuka", "occupancy")
    keys = list(specs)
    with execution(jobs=max(1, min(8, os.cpu_count() or 1))):
        payloads = run_specs([specs[key] for key in keys])
    return {
        key: (RunResult.from_payload(payload["result"]), payload["extras"])
        for key, payload in zip(keys, payloads)
    }


def _goodput(overload_runs, policy, control, mult) -> float:
    return overload_runs[(policy, control, mult)][0].throughput_cps


def test_congestion_collapse_without_control(overload_runs):
    peak = max(_goodput(overload_runs, "static", None, m) for m in MULTS)
    at_2x = _goodput(overload_runs, "static", None, 2.0)
    assert peak > 0
    assert at_2x < OVERLOAD_COLLAPSE * peak, (
        f"expected congestion collapse: 2x goodput {at_2x:.0f} is "
        f"{at_2x / peak:.2f} of peak {peak:.0f}"
    )
    # Collapse is monotone past the knee: 3x is no better than 2x.
    assert _goodput(overload_runs, "static", None, 3.0) <= at_2x * 1.05


def test_rate_control_defends_the_plateau(overload_runs):
    # Retention relative to the controller's OWN curve peak: the
    # controller pays an admission tax at the knee, but past it the
    # plateau must stay flat while the uncontrolled chain collapses.
    peak = max(_goodput(overload_runs, "static", "rate", m) for m in MULTS)
    at_2x = _goodput(overload_runs, "static", "rate", 2.0)
    assert at_2x >= OVERLOAD_PLATEAU * peak, (
        f"rate control held only {at_2x / peak:.2f} of its peak under 2x"
    )
    # And the controlled plateau clears the collapsed goodput by a wide
    # margin -- control at 2x beats no-control at 2x by > 1.5x.
    assert at_2x > 1.5 * _goodput(overload_runs, "static", None, 2.0)
    # The controller must be shedding, not riding luck: rejects > 0 and
    # far fewer retransmissions than the collapsed run.
    extras = overload_runs[("static", "rate", 2.0)][1]
    control = extras["control"]["proxies"]
    assert sum(node["stats"]["rejected"] for node in control.values()) > 0
    controlled = overload_runs[("static", "rate", 2.0)][0].retransmissions
    collapsed = overload_runs[("static", None, 2.0)][0].retransmissions
    assert controlled * 10 < collapsed


def test_composed_beats_either_mechanism_alone(overload_runs):
    composed = _goodput(overload_runs, "servartuka", "occupancy", 2.0)
    call_shedding = _goodput(overload_runs, "static", "occupancy", 2.0)
    state_shedding = _goodput(overload_runs, "servartuka", None, 2.0)
    assert composed > call_shedding, (
        f"composed {composed:.0f} <= call-shedding alone {call_shedding:.0f}"
    )
    assert composed > state_shedding, (
        f"composed {composed:.0f} <= state-shedding alone {state_shedding:.0f}"
    )


def test_goodput_curve_golden(overload_runs, golden):
    lines = ["policy mult goodput_cps"]
    for control in (None, "rate"):
        for mult in MULTS:
            goodput = _goodput(overload_runs, "static", control, mult)
            lines.append(f"{control or 'none'} {mult:g} {goodput:.1f}")
    golden("overload_goodput.txt", "\n".join(lines) + "\n")


def test_extras_carry_decision_traces(overload_runs):
    extras = overload_runs[("static", "rate", 2.0)][1]
    proxies = extras["control"]["proxies"]
    assert set(proxies) == {"P1", "P2"}
    for node in proxies.values():
        assert node["policy"] == "rate"
        decisions = node["decisions"]
        # One decision per monitor period over the whole drive.
        assert len(decisions) >= int(
            (DURATION + WARMUP) / overload_config(QUICK).monitor_period) - 2
        assert {"time", "utilization", "seen", "admitted",
                "panic"} <= set(decisions[0])
    generators = extras["control"]["generators"]
    assert generators["uac1"]["attempted"] > 0
    # Uncontrolled runs must NOT carry the key at all (dormant extras).
    assert "control" not in overload_runs[("static", None, 2.0)][1]


# ---------------------------------------------------------------------------
# Dormant-overhead contract
# ---------------------------------------------------------------------------

def test_payload_has_no_control_key_when_off():
    payload = ScenarioConfig().to_payload()
    assert "control" not in payload
    clone = ScenarioConfig.from_payload(payload)
    assert clone.control is None
    on = ScenarioConfig(control="window")
    on_payload = on.to_payload()
    assert on_payload["control"]["policy"] == "window"
    back = ScenarioConfig.from_payload(on_payload)
    assert back.control.to_payload() == on.control.to_payload()


def test_controlled_key_differs_and_is_stable():
    base = ScenarioConfig(scale=50.0, seed=7)
    plain = SpecTemplate("n_series", base, n=2,
                         policy="static").at(17000.0, 4.0, 2.0)
    controlled = SpecTemplate(
        "n_series", ScenarioConfig(scale=50.0, seed=7, control="rate"),
        n=2, policy="static",
    ).at(17000.0, 4.0, 2.0)
    assert plain.key() != controlled.key()
    rebuilt = build_scenario(controlled.payload)
    assert rebuilt.proxies["P1"].control is not None
    assert rebuilt.proxies["P1"].control.kind == "rate"
    # Per-proxy controllers are fresh instances, never shared.
    assert (rebuilt.proxies["P1"].control
            is not rebuilt.proxies["P2"].control)
