"""The public API surface: everything advertised must exist and work."""

import importlib

import pytest

import repro


class TestAllExports:
    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sip", "repro.sip.uri", "repro.sip.headers",
            "repro.sip.message", "repro.sip.parser", "repro.sip.timers",
            "repro.sip.transaction", "repro.sip.dialog", "repro.sip.digest",
            "repro.sip.sdp",
            "repro.sim", "repro.sim.events", "repro.sim.cpu",
            "repro.sim.network", "repro.sim.metrics", "repro.sim.rng",
            "repro.sim.trace",
            "repro.servers", "repro.servers.node", "repro.servers.proxy",
            "repro.servers.uac", "repro.servers.uas",
            "repro.servers.location", "repro.servers.registrar_client",
            "repro.core", "repro.core.costmodel", "repro.core.topology",
            "repro.core.lp", "repro.core.analysis", "repro.core.servartuka",
            "repro.core.static_policy", "repro.core.overload",
            "repro.core.fluid", "repro.core.simplex", "repro.core.topogen",
            "repro.workloads", "repro.workloads.scenarios",
            "repro.workloads.callgen",
            "repro.harness", "repro.harness.runner",
            "repro.harness.saturation", "repro.harness.figures",
            "repro.harness.report", "repro.harness.experiments",
            "repro.harness.optgap",
            "repro.cli",
        ],
    )
    def test_module_imports(self, module):
        importlib.import_module(module)

    def test_only_the_two_surfaces_advertise_names(self):
        for package_name in ("repro.sip", "repro.sim", "repro.servers",
                             "repro.core", "repro.workloads", "repro.harness",
                             "repro.obs"):
            package = importlib.import_module(package_name)
            assert not hasattr(package, "__all__"), package_name
        for surface_name in ("repro", "repro.api"):
            surface = importlib.import_module(surface_name)
            for name in surface.__all__:
                assert hasattr(surface, name), (surface_name, name)


class TestDocstrings:
    def test_every_public_module_documented(self):
        for module_name in ("repro", "repro.core.servartuka",
                            "repro.core.costmodel", "repro.core.lp",
                            "repro.servers.proxy", "repro.harness.figures"):
            module = importlib.import_module(module_name)
            assert module.__doc__ and len(module.__doc__) > 80, module_name

    def test_quickstart_snippet_from_docs_runs(self):
        """The README/API quickstart must keep working."""
        from repro import ScenarioConfig, run_scenario, two_series

        scenario = two_series(4000, policy="servartuka",
                              config=ScenarioConfig(scale=80.0, seed=1))
        result = run_scenario(scenario, duration=2.0, warmup=1.0)
        assert result.throughput_cps > 2000
