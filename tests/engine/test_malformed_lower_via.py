"""A malformed Via *below* the top one must not split the rungs.

Response routing needs only the topmost Via, and ``top_via`` parses only
that one on both rungs.  Before, the reference rung parsed the whole
stack there, so a response whose lowest Via was garbage escaped
``_plan_response`` as an uncaught ``SipHeaderError`` on reference and
was forwarded on turbo.
"""

import pytest

from repro.sip.headers import SipHeaderError
from repro.sip.message import SipResponse, set_engine_mode
from repro.sip.parser import parse_message

from tests.servers.test_proxy_edge_cases import make_env, make_invite


def _forward_response_with_garbage_lowest_via(engine):
    set_engine_mode(engine)
    loop, network, proxy, uac, dst = make_env()
    network.send("uac", "P1", make_invite())
    loop.run_until(0.05)
    forwarded = dst.requests("INVITE")[0]
    answer = SipResponse.for_request(forwarded, 200, to_tag="t")
    answer.add("Via", "!!garbage!!")  # below P1's and the caller's
    network.send("dst", "P1", answer)
    loop.run_until(0.2)
    return [m.to_wire() for m in uac.received], proxy.metrics.snapshot()


def test_both_rungs_forward_it_identically():
    reference, turbo = (
        _forward_response_with_garbage_lowest_via(engine)
        for engine in ("reference", "turbo")
    )
    wires, registry = reference
    assert reference == turbo
    assert registry["counters"]["responses_forwarded"] == 1
    assert [w.split("\r\n")[0] for w in wires] == [
        "SIP/2.0 100 Trying", "SIP/2.0 200 OK",
    ]
    assert "Via: !!garbage!!\r\n" in wires[-1]


@pytest.mark.parametrize("engine", ["reference", "turbo"])
def test_full_stack_view_still_rejects_it(engine):
    wires, _registry = _forward_response_with_garbage_lowest_via(engine)
    delivered = parse_message(wires[-1])
    assert delivered.top_via.host == "uac"
    with pytest.raises(SipHeaderError):
        delivered.vias
