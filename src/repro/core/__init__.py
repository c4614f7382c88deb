"""The paper's primary contribution.

- :mod:`repro.core.costmodel` -- Figure-3-calibrated CPU cost model,
- :mod:`repro.core.topology` -- server graph with imaginary source/sink,
- :mod:`repro.core.lp` -- the section 4.1 linear program (scipy or
  the pure-python :mod:`repro.core.simplex` backend),
- :mod:`repro.core.topogen` -- seeded cluster-scale topology
  generator (chains, balancer trees, multi-domain meshes),
- :mod:`repro.core.analysis` -- equation (8) and closed-form optima,
- :mod:`repro.core.static_policy` / :mod:`repro.core.servartuka` --
  per-node state policies: the static baselines and Algorithms 1 & 2,
- :mod:`repro.core.overload` -- the overload/clear control messages.
"""
