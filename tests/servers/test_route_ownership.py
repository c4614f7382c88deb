"""A proxy owns a dialog only where a Route names it exactly.

RFC 3261 16.4: a proxy pops the top Route when that value indicates the
proxy itself.  Matching by substring made ``P1`` claim every Route to
``P10``..``P19``: in a ten-proxy chain with one stateful proxy at the
far end, the stateless ``P1`` counted the dialog's BYEs as its own and
popped ``P10``'s Route, so ``P10`` forwarded them statelessly.
"""

import pytest

import repro.api as api
from repro.harness.runner import run_scenario
from repro.servers.proxy import ProxyServer, RouteTable
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStream
from repro.sip.headers import Via
from repro.sip.message import SipRequest


@pytest.mark.parametrize("engine", ["reference", "turbo"])
@pytest.mark.parametrize("n", [10, 12])
def test_only_the_stateful_tail_owns_the_byes(n, engine):
    scenario = api.make_scenario("n_series", n=n, policy="static-one",
                                 engine=engine, seed=3, rate=1000.0)
    run_scenario(scenario, duration=0.5, warmup=0.1)
    counters = {name: proxy.metrics.counters()
                for name, proxy in scenario.proxies.items()}
    tail = f"P{n}"
    stateful = {name: values["byes_stateful"]
                for name, values in counters.items()
                if values.get("byes_stateful")}
    assert list(stateful) == [tail]
    assert stateful[tail] > 0
    assert counters["P1"]["byes_stateless"] >= stateful[tail]
    assert "byes_stateless" not in counters[tail]


def _bye(route: str) -> SipRequest:
    bye = SipRequest.build(
        "BYE", "sip:bob@x.com", "sip:alice@y.com", "sip:bob@x.com",
        "c1", 2, "ft", to_tag="tt",
    )
    bye.add("Route", route)
    bye.push_via(Via("uac", branch="z9hG4bK-bye"))
    return bye


@pytest.mark.parametrize("name, owns", [("P1", False), ("P10", True),
                                        ("P100", False)])
def test_owns_dialog_matches_the_whole_route_value(name, owns):
    loop = EventLoop()
    network = Network(loop, RngStream(3, "owns").spawn("net"))
    proxy = ProxyServer(name, loop, network, RouteTable(),
                        rng=RngStream(3, name))
    assert proxy._owns_dialog(_bye("<sip:P10;lr>")) is owns
