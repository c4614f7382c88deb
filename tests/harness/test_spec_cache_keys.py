"""Pinned run-cache keys: spec-less payloads must hash as before.

The scenario-spec DSL rides on the same ``RunSpec`` payload that the
run cache hashes, so the one way to corrupt every existing cache entry
is to let a new payload field leak into runs that do not use it.  The
SHA-256 keys below cover every payload shape the executor emits
(config defaults, non-default knobs, engine and control selections,
topogen kwargs) and are the only copy of these pins in the suite.
``fork`` was recorded on the commit *before* the DSL landed; the other
four were re-recorded, deliberately, when the ``copy`` and ``fast``
engines were deleted and ``turbo`` became the default: the engine name
is inside the hashed payload, so they moved to the keys the previous
commit already produced for the same specs with ``engine="turbo"``
spelled out (a run cached under turbo before that change is still a
hit).  If one drifts, either a payload key was added unconditionally (make it
dormant: present only when active) or canonicalisation changed (a
cache-breaking event that needs a deliberate decision, not an
accident).
"""

from repro.harness.parallel import SpecTemplate
from repro.sip.timers import TimerPolicy
from repro.workloads.scenarios import ScenarioConfig
from repro.workloads.spec import ScenarioSpec

PINNED = {
    "series": "16c4f1ea172c9e10ff99b3d16a77b4bde4bb21a74ec8f7767d515b5d7dc7371c",
    "single": "8ed3d21ded7fefc594f1643674cb08c09fcd80b7913c16549d19a2df32647877",
    "fork": "72c7cb3b176d17ef590c50f2b0cc58f20c3b5218f33e5b45c03c00fb1d8f75f0",
    "mix": "e3987a0d87fafbe309cdac83268644b8316ad2c1da736ea5675f47181b1e1c57",
    "generated": "c2fd6297e7443fb735ffed971c5e2bb12629d34ced7e3bfc2998f0897042cbe9",
}


def _specs():
    return {
        "series": SpecTemplate(
            "n_series",
            ScenarioConfig(
                scale=50.0, seed=7, monitor_period=0.5,
                timers=TimerPolicy(t1=0.05, t2=0.2, t4=0.2),
            ),
            n=2, policy="servartuka",
        ).at(9000.0, 4.0, 2.0),
        "single": SpecTemplate(
            "single_proxy", ScenarioConfig(), mode="stateless"
        ).at(8000.0, 8.0, 3.0),
        "fork": SpecTemplate(
            "parallel_fork",
            ScenarioConfig(scale=25.0, seed=3, engine="turbo"),
            policy="static",
        ).at(12000.0, 6.0, 2.0),
        "mix": SpecTemplate(
            "internal_external",
            ScenarioConfig(control="occupancy"),
            external_fraction=0.8,
        ).at(10000.0, 8.0, 3.0),
        "generated": SpecTemplate(
            "generated", ScenarioConfig(scale=100.0, seed=2),
            family="mesh", size=12, seed=2, heterogeneity=0.3,
        ).at(9000.0, 5.0, 2.0),
    }


def test_pre_dsl_cache_keys_unchanged():
    specs = _specs()
    drifted = {
        name: specs[name].key()
        for name in PINNED if specs[name].key() != PINNED[name]
    }
    assert not drifted, (
        f"run-cache keys drifted (cache-breaking change): {drifted}"
    )


def test_spec_file_and_programmatic_key_agree():
    """A spec document and its programmatic twin share one cache key."""
    spec = ScenarioSpec.from_dict({
        "scenario": {
            "builder": "n_series",
            "params": {"n": 2, "policy": "servartuka"},
        },
        "config": {"scale": 50.0, "seed": 7, "engine": "reference"},
        "load": {"rate": 9000.0},
        "run": {"duration": 4.0, "warmup": 2.0},
    })
    programmatic = SpecTemplate(
        "n_series",
        ScenarioConfig.from_payload(
            {"scale": 50.0, "seed": 7, "engine": "reference"}
        ),
        label="n_series", n=2, policy="servartuka",
    ).at(9000.0, duration=4.0, warmup=2.0, drain=0.0)
    assert spec.run_spec().key() == programmatic.key()


def test_label_never_hashes():
    base = ScenarioSpec(builder="single_proxy", rate=5000.0)
    labelled = ScenarioSpec(
        builder="single_proxy", rate=5000.0, label="anything-else"
    )
    assert base.run_spec().key() == labelled.run_spec().key()
