"""``forward_clone`` against the forwarding mutator sequence, on both rungs.

A proxy builds its downstream request with one pass over a copy
(``forward_clone``).  The oracle here is the sequence of plain mutators
that pass replaces; the two must agree on every header value per name,
on the order of the Via, Route and Record-Route stacks, and on the new
top Via, while the request the proxy received stays untouched.
"""

import itertools

import pytest

from repro.sip.headers import Via
from repro.sip.message import SipRequest, forward_clone, set_engine_mode

AUTH = ("X-Servartuka-Auth", "done")
STATE = ("X-Servartuka-State", "held")
BRANCH = "z9hG4bK-P1-7"

#: Route sets a request can arrive with at proxy P1.
ROUTE_SETS = {
    "none": [],
    "ours_on_top": ["<sip:P1;lr>", "<sip:P3;lr>", "<sip:P4;lr>"],
    "only_ours": ["<sip:P1;lr>"],
    "foreign_on_top": ["<sip:P3;lr>", "<sip:P1;lr>"],
    "prefix_named": ["<sip:P10;lr>", "<sip:P12;lr>"],
}


def own_route(name):
    return f"<sip:{name};lr>"


def received(method, routes, markers):
    """A request as P1 receives it: two Vias, views already parsed."""
    request = SipRequest.build(
        method, "sip:bob@far.example.net", "sip:alice@near.example.net",
        "sip:bob@far.example.net", "call-1", 1 if method == "INVITE" else 2,
        "ft", to_tag=None if method == "INVITE" else "tt",
        body="v=0\r\n" if method == "INVITE" else "",
    )
    request.add("Contact", "<sip:uac>")
    for value in routes:
        request.add("Route", value)
    request.add("Record-Route", "<sip:P0;lr>")
    if markers:
        request.add(*AUTH)
        request.add(*STATE)
    request.push_via(Via("uac", branch="z9hG4bK-uac-1"))
    request.push_via(Via("P0", branch="z9hG4bK-P0-1"))
    wire = request.copy()  # what crossed the hop into P1
    wire.transaction_key()
    wire.vias, wire.routes, wire.record_routes, wire.from_, wire.cseq
    return wire


def mutator_sequence(request, name, branch, auth, state, record_route, mf):
    """What a proxy did before the one-pass clone: copy, then mutate."""
    forwarded = request.copy()
    forwarded.set("Max-Forwards", mf)
    routes = forwarded.get_all("Route")
    if routes and routes[0] == own_route(name):
        forwarded.remove("Route")
        for value in routes[1:]:
            forwarded.add("Route", value)
    if auth is not None:
        forwarded.set(*auth)
    if state is not None:
        forwarded.set(*state)
    if record_route:
        forwarded.add("Record-Route", own_route(name), at_top=True)
    forwarded.push_via(Via(name, branch=branch))
    return forwarded


def by_name(message):
    return {name: message.get_all(name) for name, _ in message.headers}


GRID = list(itertools.product(
    ["reference", "turbo"], ["INVITE", "BYE"], sorted(ROUTE_SETS),
    [False, True], [False, True], [False, True],
))


@pytest.mark.parametrize(
    "engine, method, routes, markers, stamp, record_route", GRID)
def test_one_pass_matches_the_mutators(engine, method, routes, markers,
                                       stamp, record_route):
    set_engine_mode(engine)
    request = received(method, ROUTE_SETS[routes], markers)
    before = request.to_wire()
    source_key = request.transaction_key()
    auth = AUTH if stamp else None
    state = STATE if stamp else None

    clone = forward_clone(request, "P1", BRANCH, own_route("P1"), auth,
                          state, record_route, "69")
    oracle = mutator_sequence(request, "P1", BRANCH, auth, state,
                              record_route, "69")

    assert by_name(clone) == by_name(oracle)
    assert len(clone.headers) == len(oracle.headers)
    assert clone.body == oracle.body and clone.uri == oracle.uri
    assert len(clone.to_wire()) == len(oracle.to_wire())
    # The new top Via, and every view, is read from the new header list.
    assert clone.top_via.branch == BRANCH and clone.top_via.host == "P1"
    assert clone.transaction_key() == oracle.transaction_key()
    assert clone.transaction_key()[:2] == (BRANCH, "P1")
    assert [str(via) for via in clone.vias] == clone.get_all("Via")
    assert ([route.uri.host for route in clone.routes]
            == [route.uri.host for route in oracle.routes])
    assert ([route.uri.host for route in clone.record_routes]
            == [route.uri.host for route in oracle.record_routes])
    # The received request is what its sender may retransmit.
    assert request.to_wire() == before
    assert request.transaction_key() == source_key


def test_only_the_exact_own_route_is_popped():
    request = received("BYE", ROUTE_SETS["prefix_named"], False)
    clone = forward_clone(request, "P1", BRANCH, own_route("P1"), None,
                          None, False, "69")
    assert clone.get_all("Route") == ROUTE_SETS["prefix_named"]
    clone = forward_clone(request, "P10", BRANCH, own_route("P10"), None,
                          None, False, "69")
    assert clone.get_all("Route") == ["<sip:P12;lr>"]
