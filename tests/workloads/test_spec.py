"""The declarative scenario-spec DSL (``repro.workloads.spec``)."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.cli import main
from repro.harness import parallel
from repro.harness.parallel import SCENARIO_BUILDERS
from repro.workloads.scenarios import Scenario
from repro.workloads.spec import ScenarioSpec

EXAMPLES = pathlib.Path(__file__).parents[2] / "examples" / "specs"

TOML_DOC = """
[scenario]
builder = "heavy_tail"
label = "tails"

[scenario.params]
hold_time = 0.5
hold_dist = "pareto"

[config]
scale = 200.0
seed = 4
engine = "reference"

[load]
rate = 2000.0

[run]
duration = 6.0
warmup = 2.0
drain = 1.0
"""


class TestParsing:
    def test_toml(self):
        spec = ScenarioSpec.from_toml(TOML_DOC)
        assert spec.builder == "heavy_tail"
        assert spec.label == "tails"
        assert spec.rate == 2000.0
        assert spec.params == {"hold_time": 0.5, "hold_dist": "pareto"}
        assert spec.config == {
            "scale": 200.0, "seed": 4, "engine": "reference",
        }
        assert (spec.duration, spec.warmup, spec.drain) == (6.0, 2.0, 1.0)

    def test_run_section_defaults(self):
        spec = ScenarioSpec.from_dict({
            "scenario": {"builder": "single_proxy"},
            "load": {"rate": 100.0},
        })
        assert (spec.duration, spec.warmup, spec.drain) == (10.0, 4.0, 0.0)
        assert spec.label == "single_proxy"
        assert spec.config is None

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioSpec.from_dict({
                "scenario": {"builder": "single_proxy"},
                "load": {"rate": 1.0},
                "workload": {},
            })

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ValueError, match=r"\[scenario\]"):
            ScenarioSpec.from_dict({
                "scenario": {"builder": "single_proxy", "rate": 5.0},
                "load": {"rate": 1.0},
            })

    def test_unknown_run_key_rejected(self):
        with pytest.raises(ValueError, match=r"\[run\]"):
            ScenarioSpec.from_dict({
                "scenario": {"builder": "single_proxy"},
                "load": {"rate": 1.0},
                "run": {"length": 5.0},
            })

    def test_missing_load_rejected(self):
        with pytest.raises(ValueError, match="load"):
            ScenarioSpec.from_dict({"scenario": {"builder": "single_proxy"}})

    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario builder"):
            ScenarioSpec(builder="nonesuch", rate=100.0)

    def test_reserved_params_rejected(self):
        for key in ("rate", "config"):
            with pytest.raises(ValueError, match="params must not set"):
                ScenarioSpec(
                    builder="single_proxy", rate=100.0, params={key: 1}
                )

    def test_bad_config_fails_at_parse_time(self):
        with pytest.raises(Exception):
            ScenarioSpec(
                builder="single_proxy", rate=100.0,
                config={"engine": "warp-drive"},
            )

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(builder="single_proxy", rate=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(builder="single_proxy", rate=1.0, duration=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(builder="single_proxy", rate=1.0, warmup=-1.0)


class TestPathsAndCoerce:
    def test_from_path_dispatches_on_suffix(self, tmp_path):
        toml_file = tmp_path / "spec.toml"
        toml_file.write_text(TOML_DOC)
        json_file = tmp_path / "spec.json"
        json_file.write_text(ScenarioSpec.from_toml(TOML_DOC).to_json())
        assert ScenarioSpec.from_path(toml_file) == \
            ScenarioSpec.from_path(json_file)

    def test_from_path_unknown_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("x")
        with pytest.raises(ValueError, match="toml or"):
            ScenarioSpec.from_path(path)

    def test_coerce(self, tmp_path):
        spec = ScenarioSpec.from_toml(TOML_DOC)
        assert ScenarioSpec.coerce(spec) is spec
        assert ScenarioSpec.coerce(spec.to_dict()) == spec
        path = tmp_path / "s.toml"
        path.write_text(TOML_DOC)
        assert ScenarioSpec.coerce(str(path)) == spec
        with pytest.raises(TypeError):
            ScenarioSpec.coerce(42)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ScenarioSpec.from_toml(TOML_DOC)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ScenarioSpec.from_toml(TOML_DOC)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # to_json is canonical: stable under a second round trip.
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.to_json() == spec.to_json()

    # Config keys restricted to scalar knobs every engine accepts;
    # nested tables (timers, hybrid) have their own coercion tests.
    @settings(max_examples=40, deadline=None)
    @given(
        builder=st.sampled_from(sorted(SCENARIO_BUILDERS)),
        rate=st.floats(min_value=0.5, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
        duration=st.floats(min_value=0.1, max_value=1e4,
                           allow_nan=False, allow_infinity=False),
        warmup=st.floats(min_value=0.0, max_value=1e4,
                         allow_nan=False, allow_infinity=False),
        drain=st.floats(min_value=0.0, max_value=1e4,
                        allow_nan=False, allow_infinity=False),
        label=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=20,
        ),
        config=st.fixed_dictionaries(
            {},
            optional={
                "scale": st.floats(min_value=1.0, max_value=500.0,
                                   allow_nan=False, allow_infinity=False),
                "seed": st.integers(min_value=0, max_value=2**31),
                "engine": st.sampled_from(["reference", "turbo"]),
                "monitor_period": st.floats(
                    min_value=0.05, max_value=5.0,
                    allow_nan=False, allow_infinity=False,
                ),
            },
        ),
    )
    def test_property_round_trip_and_stable_key(
        self, builder, rate, duration, warmup, drain, label, config
    ):
        spec = ScenarioSpec(
            builder=builder, rate=rate, config=config or None,
            label=label, duration=duration, warmup=warmup, drain=drain,
        )
        back = ScenarioSpec.from_json(spec.to_json())
        # Labels default to the builder name on both sides.
        assert back.label == (label or builder)
        assert back.rate == spec.rate
        assert back.config == spec.config
        assert (back.duration, back.warmup, back.drain) == (
            spec.duration, spec.warmup, spec.drain
        )
        # The executor cache key survives serialisation untouched.
        assert back.run_spec().key() == spec.run_spec().key()


class TestExecution:
    def test_build_wires_a_scenario(self):
        spec = ScenarioSpec.from_toml(TOML_DOC)
        scenario = spec.build()
        assert isinstance(scenario, Scenario)
        assert scenario.proxies
        assert scenario.generators

    def test_run_spec_payload_shape(self):
        spec = ScenarioSpec.from_toml(TOML_DOC)
        payload = spec.run_spec().payload
        assert payload["builder"] == "heavy_tail"
        assert payload["kwargs"]["rate"] == 2000.0
        assert payload["duration"] == 6.0

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.toml")), ids=lambda p: p.stem
    )
    def test_example_specs_parse_and_build(self, path):
        spec = ScenarioSpec.from_path(path)
        assert spec.builder in SCENARIO_BUILDERS
        scenario = spec.build()
        assert isinstance(scenario, Scenario)

    def test_examples_exist(self):
        assert len(list(EXAMPLES.glob("*.toml"))) >= 4


class _Submitted(Exception):
    """Carries the specs a door handed the executor, and stops the run."""


class TestThreeDoors:
    """The CLI, the API and the spec itself denote one run: the
    executor is handed the same ``RunSpec`` -- cache key *and* label --
    whichever door a spec file (plus the same overrides) comes in by."""

    OVERRIDES = {
        "none": ({}, []),
        "load-and-config": (
            dict(seed=5, engine="reference", rate=1234),
            ["--seed", "5", "--engine", "reference", "--rate", "1234"],
        ),
        "features": (
            dict(control="rate", observe="cpu"),
            ["--control", "rate", "--observe", "cpu"],
        ),
    }

    @staticmethod
    def submitted(door):
        with pytest.raises(_Submitted) as caught:
            door()
        (spec,) = caught.value.args[0]
        return spec

    @pytest.mark.parametrize("overrides", sorted(OVERRIDES))
    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.toml")), ids=lambda p: p.stem
    )
    def test_same_key_and_label(self, monkeypatch, path, overrides):
        def capture(specs, context=None):
            raise _Submitted(list(specs))

        # Wherever a door reaches the executor from.
        monkeypatch.setattr(parallel, "run_specs", capture)
        monkeypatch.setattr(api, "run_specs", capture)
        given, flags = self.OVERRIDES[overrides]
        own = ScenarioSpec.from_path(path).run_spec(**given)
        for door in (
            lambda: main(["run", "--spec", str(path), "--no-cache", *flags]),
            lambda: api.run_scenario(spec=str(path), **given),
        ):
            spec = self.submitted(door)
            assert spec.key() == own.key()
            assert spec.label == own.label
