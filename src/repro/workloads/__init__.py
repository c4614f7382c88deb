"""Workload construction: canonical topologies and load profiles.

:mod:`repro.workloads.scenarios` builds complete simulations of the
paper's evaluation topologies (single proxy, N in series, the Figure 7
internal/external mix, the Figure 8 parallel fork) plus the diversity
families (REGISTER churn, B2BUA chains, flash crowds, heavy-tailed
holds); :mod:`repro.workloads.callgen` provides load profiles (steps,
ramps) for time-varying experiments;
:mod:`repro.workloads.spec` is the declarative scenario DSL
(TOML/JSON -> :class:`ScenarioSpec` -> a runnable scenario).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.workloads.scenarios import (
        Scenario,
        ScenarioConfig,
        single_proxy,
        n_series,
        two_series,
        internal_external,
        parallel_fork,
        generated,
        register_churn,
        b2bua_chain,
        flash_crowd,
        heavy_tail,
    )
    from repro.workloads.callgen import LoadProfile, LoadStep, apply_profile
    from repro.workloads.spec import ScenarioSpec

#: Re-exported name -> defining module (resolved on first access).
_EXPORTS = {
    "Scenario": "repro.workloads.scenarios",
    "ScenarioConfig": "repro.workloads.scenarios",
    "ScenarioSpec": "repro.workloads.spec",
    "single_proxy": "repro.workloads.scenarios",
    "n_series": "repro.workloads.scenarios",
    "two_series": "repro.workloads.scenarios",
    "internal_external": "repro.workloads.scenarios",
    "parallel_fork": "repro.workloads.scenarios",
    "generated": "repro.workloads.scenarios",
    "register_churn": "repro.workloads.scenarios",
    "b2bua_chain": "repro.workloads.scenarios",
    "flash_crowd": "repro.workloads.scenarios",
    "heavy_tail": "repro.workloads.scenarios",
    "LoadProfile": "repro.workloads.callgen",
    "LoadStep": "repro.workloads.callgen",
    "apply_profile": "repro.workloads.callgen",
}
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
