"""Experiment harness: run scenarios, sweep loads, regenerate figures.

- :mod:`repro.harness.runner` -- run one scenario at one load and
  collect a structured :class:`~repro.harness.runner.RunResult`,
- :mod:`repro.harness.saturation` -- load sweeps and saturation search,
- :mod:`repro.harness.parallel` -- process-pool sweep executor with
  deterministic merging (``--jobs``) and the run-cache plumbing,
- :mod:`repro.harness.runcache` -- on-disk content-addressed cache of
  run results,
- :mod:`repro.harness.figures` -- one function per paper table/figure,
- :mod:`repro.harness.report` -- text rendering and paper-vs-measured
  comparison tables.
"""
