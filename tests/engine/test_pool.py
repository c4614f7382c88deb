"""Property battery for the turbo engine's message free lists.

Two contracts keep shell recycling safe (see the pool comment block in
``repro.sip.message``):

1. **Reset**: a shell acquired from the pool is indistinguishable from
   a freshly constructed message -- no header, body, cache entry or
   ownership flag survives from its previous life, no matter what junk
   the previous holder stuffed into it.  Only ``pool_gen`` (the
   stale-reference generation counter) is allowed to differ.
2. **Transparency**: runs with pooling active are bit-identical to
   the unpooled reference engine, across randomly drawn scenario
   configurations (the fixed-seed differential battery in
   ``test_differential.py`` covers the curated scenarios; this battery
   explores the config space).
"""

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.harness.runner import fingerprint_scenario
from repro.sip.headers import Via
from repro.sip.message import (
    SipRequest,
    SipResponse,
    message_pool_stats,
    release_message,
    resume_message_pooling,
    set_engine_mode,
    suspend_message_pooling,
)
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig, single_proxy, two_series


@contextmanager
def turbo():
    set_engine_mode("turbo")
    try:
        yield
    finally:
        set_engine_mode("reference")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_NAME = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-",
    min_size=1, max_size=12,
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))
_VALUE = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0, max_size=24,
)
_HEADERS = st.lists(st.tuples(_NAME, _VALUE), max_size=8)
_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                 min_size=1, max_size=10)
_BODY = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=64,
)


def _build(user: str, call: str, body: str) -> SipRequest:
    return SipRequest.build(
        "INVITE",
        f"sip:{user}@example.com",
        f"sip:caller-{user}@client.example.com",
        f"sip:{user}@example.com",
        f"{call}@client.example.com",
        1,
        from_tag=f"tag-{call}",
        body=body,
    )


def _dirty(request: SipRequest, junk, body: str) -> None:
    """Smear arbitrary state over a message: extra headers, body, caches."""
    request.body = body
    for name, value in junk:
        request.add(name, value)
    request.add("Via", "SIP/2.0/UDP smear.example.com;branch=z9hG4bKjunk",
                at_top=True)
    # Populate every lazy view cache the simulator uses.
    request.top_via
    request.from_
    request.cseq
    request.transaction_key()


def _state(message):
    """Every pool-reset-relevant field except pool_gen."""
    fields = {
        "headers": list(message.headers),
        "body": message.body,
        "cache": dict(message._cache),
        "cow": message._cow,
        "free": message._free,
        "wire": message.to_wire(),
    }
    if isinstance(message, SipRequest):
        fields["method"] = message.method
        fields["uri"] = str(message.uri)
    else:
        fields["status"] = message.status
        fields["reason"] = message.reason
    return fields


# ---------------------------------------------------------------------------
# Property 1: acquired shells are always field-reset
# ---------------------------------------------------------------------------
class TestPoolReset:
    @given(junk=_HEADERS, junk_body=_BODY, user=_LABEL, call=_LABEL,
           body=_BODY)
    @settings(max_examples=100, deadline=None)
    def test_recycled_build_equals_fresh_build(self, junk, junk_body,
                                               user, call, body):
        with turbo():
            victim = _build("victim", "dirty-call", "")
            _dirty(victim, junk, junk_body)
            assert release_message(victim)
            assert message_pool_stats()["requests"] >= 1

            recycled = _build(user, call, body)
            # The shell really was recycled, and marked live again.
            assert recycled is victim
            assert not recycled._free

            suspend_message_pooling()
            try:
                fresh = _build(user, call, body)
            finally:
                resume_message_pooling()
            assert _state(recycled) == _state(fresh)

    @given(junk=_HEADERS, junk_body=_BODY, status=st.sampled_from(
        [100, 180, 200, 404, 487, 500]), tag=_LABEL)
    @settings(max_examples=100, deadline=None)
    def test_recycled_response_equals_fresh_response(self, junk, junk_body,
                                                     status, tag):
        with turbo():
            request = _build("bob", "resp-call", "")
            request.push_via(Via("client.example.com", branch="z9hG4bKreq"))
            victim = SipResponse.for_request(request, 200)
            victim.body = junk_body
            for name, value in junk:
                victim.add(name, value)
            victim.top_via
            assert release_message(victim)

            recycled = SipResponse.for_request(request, status, to_tag=tag)
            assert recycled is victim
            assert not recycled._free

            suspend_message_pooling()
            try:
                fresh = SipResponse.for_request(request, status, to_tag=tag)
            finally:
                resume_message_pooling()
            assert _state(recycled) == _state(fresh)

    @given(user=_LABEL, call=_LABEL)
    @settings(max_examples=50, deadline=None)
    def test_generation_counter_detects_recycling(self, user, call):
        with turbo():
            message = _build(user, call, "")
            holder = (message, message.pool_gen)
            assert release_message(message)
            # Double release is refused (the shell is already free).
            assert not release_message(message)
            # A stale holder can always tell its reference was recycled.
            assert holder[1] != message.pool_gen

    def test_release_is_noop_outside_turbo(self):
        set_engine_mode("reference")
        message = _build("alice", "noop", "")
        assert not release_message(message)
        assert message_pool_stats() == {
            "requests": 0, "responses": 0, "header_lists": 0,
        }


# ---------------------------------------------------------------------------
# Property 2: pooled and non-pooled runs are bit-identical
# ---------------------------------------------------------------------------
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
