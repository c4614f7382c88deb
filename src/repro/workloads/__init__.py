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
