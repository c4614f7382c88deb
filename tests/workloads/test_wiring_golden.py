"""What each topology builder wires, pinned as a JSON snapshot.

Run keys and fingerprints cannot see a wiring change that happens to
leave a run's numbers alone (a route added in another order, a UAS
that answers for one AOR more), so this file records the wiring
itself for every builder that is described by a topology: node
registration order, each proxy's routes and fallbacks in insertion
order, its policy and auth placement, each call generator's config,
each answering server's AORs and the partition hints.  Rebless with
``pytest tests/workloads/test_wiring_golden.py --update-golden``.
"""

import json

from repro.workloads.scenarios import (
    ScenarioConfig,
    flash_crowd,
    generated,
    heavy_tail,
    internal_external,
    n_series,
    parallel_fork,
    two_series,
)

RATE = 9000.0

CASES = {
    **{
        f"n_series/n={n}/auth={auth}": (
            lambda config, n=n, auth=auth: n_series(n, RATE, auth=auth,
                                                   config=config)
        )
        for n in (1, 2, 3)
        for auth in ("none", "entry", "distributed")
    },
    "n_series/static": lambda config: n_series(3, RATE, policy="static",
                                               config=config),
    "n_series/static-one": lambda config: n_series(
        3, RATE, policy="static-one", config=config),
    "n_series/static-one@P1": lambda config: n_series(
        2, RATE, policy="static-one", static_stateful="P1", config=config),
    "n_series/stateless": lambda config: n_series(2, RATE, policy="stateless",
                                                  config=config),
    "two_series": lambda config: two_series(RATE, config=config),
    "heavy_tail": lambda config: heavy_tail(RATE, config=config),
    "heavy_tail/lognormal-reinvite": lambda config: heavy_tail(
        RATE, hold_dist="lognormal", reinvite_after=2.0, n=3, config=config),
    "flash_crowd": lambda config: flash_crowd(RATE, config=config),
    "flash_crowd/step-n3-static": lambda config: flash_crowd(
        RATE, shape="step", n=3, policy="static", config=config),
    **{
        f"internal_external/f={fraction}": (
            lambda config, fraction=fraction: internal_external(
                RATE, fraction, config=config)
        )
        for fraction in (0.0, 0.8, 1.0)
    },
    "internal_external/static": lambda config: internal_external(
        RATE, 0.8, policy="static", config=config),
    "internal_external/static-one": lambda config: internal_external(
        RATE, 0.3, policy="static-one", config=config),
    "internal_external/static-one@S2": lambda config: internal_external(
        RATE, 0.3, policy="static-one", static_stateful="S2", config=config),
    **{
        f"parallel_fork/failover={failover}": (
            lambda config, failover=failover: parallel_fork(
                RATE, failover=failover, config=config)
        )
        for failover in (False, True)
    },
    "parallel_fork/static": lambda config: parallel_fork(
        RATE, policy="static", config=config),
    "parallel_fork/static-front": lambda config: parallel_fork(
        RATE, policy="static", static_front_stateful=True, upper_share=0.3,
        config=config),
    "generated/chain": lambda config: generated(RATE, "chain", size=5,
                                                config=config),
    "generated/tree": lambda config: generated(
        RATE, "tree", size=7, heterogeneity=0.4, policy="static-one",
        config=config),
    "generated/mesh": lambda config: generated(
        RATE, "mesh", size=9, seed=3, policy="static", config=config),
}


def _policy(policy):
    if policy is None:
        return None
    mode = getattr(policy, "mode", None)
    return [type(policy).__name__,
            mode.value if mode is not None else policy.resource]


def wiring(scenario) -> dict:
    """Everything the builder decided, one JSON-able entry per part."""
    bindings = {}
    for aor, bucket in scenario.location._bindings.items():
        for binding in bucket:
            bindings.setdefault(binding.node, []).append(aor)
    parts = {
        "name": scenario.name,
        "nodes": scenario.network.node_names(),
        "partition_hints": scenario.partition_hints,
    }
    for name, proxy in scenario.proxies.items():
        table = proxy.route_table
        cost = proxy.cost_model
        parts[f"proxy {name}"] = {
            "routes": list(table._routes.items()),
            "fallbacks": list(table._fallbacks.items()),
            "default": table.default,
            "policy": _policy(proxy.policy),
            "auth": [proxy.config.auth_enabled,
                     proxy.credentials is not None,
                     _policy(proxy.auth_policy)],
            "cost_model": [cost is scenario.cost_model,
                           cost.t_sf, cost.t_sl, cost.scale],
        }
    for generator in scenario.generators:
        config = generator.config
        parts[f"uac {generator.name}"] = [
            config.first_hop, config.destinations, config.rate,
            config.auth_username, config.hold_time, config.hold_dist,
            config.hold_sigma, config.hold_alpha, config.reinvite_after,
        ]
    for server in scenario.servers:
        parts[f"uas {server.name}"] = bindings.get(server.name, [])
    return parts


def render(snapshot: dict) -> str:
    """JSON with one line per part, so a diff names the part that moved."""
    cases = []
    for case, parts in snapshot.items():
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                           for key, value in parts.items())
        cases.append(f" {json.dumps(case)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


def test_builders_wire_as_recorded(golden):
    config = ScenarioConfig(scale=25.0, seed=3)
    snapshot = {name: wiring(build(config)) for name, build in CASES.items()}
    golden("scenario_wiring.json", render(snapshot))

