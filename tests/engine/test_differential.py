"""Differential battery: turbo must be observationally equal to reference.

The simulator has two message paths (``repro.sip.message``):

- ``reference`` -- wire-faithful: every hop serializes the message and
  re-parses the octets,
- ``turbo`` (the default) -- timer-wheel loop, copy-on-write messages
  carrying their parsed views, lean metrics and deferred CPU accounting.

Everything else, the proxies' one-pass forwarding and the SDP memos
included, is the same code on both rungs.

The contract the fast paths are allowed to exploit is *only wall-clock
changes*: same RNG draw order, same event ordering, same costs, same
counters.  This battery runs every experiment scenario family on both
engines across five seeds and asserts the full observable
fingerprint is bit-identical (no tolerances anywhere):

- every node's deep metrics snapshot (counters, gauges, histogram
  sample sequences, time series),
- call outcomes (attempted / completed / failed per generator, per-UAS
  completions),
- each SERvartuka proxy's ``myshare`` trajectory, sampled mid-run at
  every slice boundary (so transient planning states are compared, not
  just the final value),
- network packet accounting and total events processed.

Each family's seed-1 fingerprint (and the fault campaign's) is also
pinned by digest in ``tests/golden/fingerprints.json``, so a refactor
that claims "fingerprints unchanged" is checked against the commit
before it, not only rung against rung.
"""

import hashlib
import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import topogen
from repro.core.costmodel import CostModel
from repro.harness.resilience import (
    ResilienceParams,
    build_resilience_scenario,
    resilience_config,
)
from repro.harness.parallel import canonical_json
from repro.harness.runner import fingerprint_scenario
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import (
    ScenarioConfig,
    b2bua_chain,
    flash_crowd,
    generated,
    heavy_tail,
    internal_external,
    n_series,
    parallel_fork,
    register_churn,
    single_proxy,
    two_series,
)

SEEDS = (1, 2, 3, 4, 5)

# Short timers + aggressive scale keep each run well under a second
# while still exercising retransmissions, state decisions and overload.
TIMERS = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)
RUN_FOR = 3.0
DRAIN = 1.0
SLICES = 6


def _config(engine: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        scale=100.0,
        seed=seed,
        monitor_period=0.5,
        timers=TIMERS,
        engine=engine,
    )


# Scenario family -> builder(config).  Rates are paper-equivalent cps
# chosen around each topology's knee so state-shedding actually engages.
SCENARIOS = {
    "single_proxy_auth": lambda config: single_proxy(
        9_000, mode="authentication", config=config
    ),
    "two_series": lambda config: two_series(
        11_000, policy="servartuka", config=config
    ),
    "three_series": lambda config: n_series(
        3, 11_000, policy="servartuka", config=config
    ),
    "two_series_static": lambda config: two_series(
        11_000, policy="static", config=config
    ),
    "internal_external": lambda config: internal_external(
        11_000, 0.6, policy="servartuka", config=config
    ),
    "parallel_fork": lambda config: parallel_fork(
        12_000, policy="servartuka", config=config
    ),
    # Workload-diversity families (same identity contract): REGISTER
    # churn with a digest-auth storm, a B2BUA bridging two segments,
    # a flash crowd with a mid-crowd restart avalanche, and
    # heavy-tailed holds with mid-call re-INVITEs.
    "register_churn_digest": lambda config: register_churn(
        9_000, subscribers=1_500, refresh_interval=1.0, auth="digest",
        config=config,
    ),
    "b2bua_chain": lambda config: b2bua_chain(
        9_000, policy="servartuka", config=config
    ),
    "flash_crowd_restart": lambda config: flash_crowd(
        8_000, shape="spike", peak_factor=3.0, period=1.0,
        restart_node="P2", restart_at=1.5, downtime=0.4, config=config,
    ),
    "heavy_tail_reinvite": lambda config: heavy_tail(
        9_000, hold_time=0.5, hold_dist="pareto", hold_alpha=1.8,
        reinvite_after=0.3, config=config,
    ),
}


def _fingerprint(scenario, run_for: float = RUN_FOR, drain: float = DRAIN):
    """The ``fingerprint`` job's drive and collector, on a live scenario."""
    return fingerprint_scenario(scenario, run_for, slices=SLICES, drain=drain)


PINS = pathlib.Path(__file__).parents[1] / "golden" / "fingerprints.json"


def _check_pin(golden, key: str, fingerprint: dict) -> None:
    """Hold ``fingerprint`` to its digest under ``key`` in the pin file
    (``--update-golden`` rewrites that one entry)."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[key] = hashlib.sha256(
        canonical_json(fingerprint).encode()).hexdigest()
    golden(PINS.name, json.dumps(pins, indent=1, sort_keys=True) + "\n")


def _first_divergence(reference: dict, other: dict) -> str:
    """Human-readable pointer at the first differing fingerprint part."""
    for part in reference:
        if reference[part] != other[part]:
            if part != "registries":
                return f"{part}: {reference[part]!r} != {other[part]!r}"
            for node in reference[part]:
                ref_node = reference[part][node]
                other_node = other[part].get(node)
                if ref_node != other_node:
                    for section in ref_node:
                        if ref_node[section] != other_node[section]:
                            keys = [
                                k for k in ref_node[section]
                                if ref_node[section][k]
                                != other_node[section].get(k)
                            ]
                            return (f"registries[{node}][{section}] "
                                    f"differs at {keys[:3]}")
            return part
    return "no divergence"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engines_bit_identical(name, golden):
    builder = SCENARIOS[name]
    for seed in SEEDS:
        reference, turbo = (
            _fingerprint(builder(_config(engine, seed)))
            for engine in ("reference", "turbo")
        )
        assert turbo == reference, (
            f"{name} seed={seed}: turbo diverges from reference -- "
            + _first_divergence(reference, turbo)
        )
        if seed == 1:
            _check_pin(golden, name, reference)


# Generated cluster topologies (repro.core.topogen): a heterogeneous
# 6-deep chain and a 2-balancer tree, offered their LP-optimal load (the
# tree 10 % past it) so shedding engages on every proxy that can shed.
# Three seeds keep the whole case affordable (each run simulates 6-7
# proxies).
GENERATED_CASES = {
    "chain6_hetero": {"family": "chain", "size": 6, "heterogeneity": 0.4},
    "tree7_balancers": {"family": "tree", "size": 7, "heterogeneity": 0.0,
                        "overload": 1.1},
}
GENERATED_SEEDS = (1, 2, 3)


def _generated_rate(case: dict, seed: int, config: ScenarioConfig) -> float:
    """Offered load: the instance's LP-optimal load under config's
    anchors, times the case's overload factor."""
    unit = CostModel(
        t_sf=config.t_sf, t_sl=config.t_sl, scale=1.0,
        via_overhead=config.via_overhead,
    )
    gen = topogen.generate(
        case["family"], case["size"], seed=seed,
        heterogeneity=case["heterogeneity"], cost_model=unit,
    )
    return gen.oracle(backend="simplex").throughput * case.get("overload", 1.0)


@pytest.mark.parametrize("name", sorted(GENERATED_CASES))
def test_generated_topologies_bit_identical(name):
    case = GENERATED_CASES[name]
    for seed in GENERATED_SEEDS:
        rate = _generated_rate(case, seed, _config("reference", seed))
        reference, turbo = (
            _fingerprint(generated(
                rate,
                family=case["family"],
                size=case["size"],
                seed=seed,
                heterogeneity=case["heterogeneity"],
                policy="servartuka",
                config=_config(engine, seed),
            ))
            for engine in ("reference", "turbo")
        )
        assert turbo == reference, (
            f"{name} seed={seed}: turbo diverges from reference -- "
            + _first_divergence(reference, turbo)
        )


def test_resilience_bit_identical(golden):
    """The fault campaign (crashes, loss, retransmission storms) is the
    harshest ordering test: recovery hinges on exact timer interleaving."""
    for seed in SEEDS:
        fingerprints = []
        for engine in ("reference", "turbo"):
            params = ResilienceParams(
                crash_times=(1.7, 3.7),
                run_for=5.0,
                drain=3.0,
                config=resilience_config(seed=seed, scale=50.0, engine=engine),
            )
            scenario = build_resilience_scenario("servartuka", params)
            fingerprints.append(_fingerprint(
                scenario, run_for=params.run_for, drain=params.drain
            ))
        reference, turbo = fingerprints
        assert turbo == reference, (
            f"resilience seed={seed}: turbo diverges from reference -- "
            + _first_divergence(reference, turbo)
        )
        if seed == 1:
            _check_pin(golden, "resilience", reference)


def test_myshare_trajectory_not_degenerate():
    """Guard the battery itself: the sampled trajectories must contain
    real planning activity (finite myshare after the knee), otherwise
    the trajectory comparison above would be vacuous."""
    config = _config("turbo", 1)
    fingerprint = _fingerprint(two_series(11_000, policy="servartuka",
                                          config=config))
    finite_seen = any(
        any(
            any(math.isfinite(v) for v in paths.values())
            for paths in sample.values()
        )
        for sample in fingerprint["myshare_trajectory"]
    )
    assert finite_seen, "no finite myshare sampled; raise the test load"


def _outcome(topology, rate, seed, engine):
    timers = TimerPolicy(t1=0.05, t2=0.2, t4=0.2)
    config = ScenarioConfig(scale=100.0, seed=seed, monitor_period=0.5,
                            timers=timers, engine=engine)
    if topology == "single_proxy":
        scenario = single_proxy(rate, mode="transaction_stateful",
                                config=config)
    else:
        scenario = two_series(rate, policy="servartuka", config=config)
    return fingerprint_scenario(scenario, 1.5, slices=1, drain=0.5)


class TestPoolTransparency:
    @given(
        topology=st.sampled_from(["single_proxy", "two_series"]),
        rate=st.integers(min_value=12, max_value=28).map(lambda k: k * 500.0),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_turbo_matches_reference_on_random_configs(self, topology, rate,
                                                       seed):
        pooled = _outcome(topology, rate, seed, "turbo")
        plain = _outcome(topology, rate, seed, "reference")
        assert pooled == plain
