"""Experiment harness: one module per table/figure of the evaluation.

Each module states its grid, ``cells(duration, seed, fidelity,
**grid)``, and its text, ``render(rows)``; the one driver,
:func:`repro.experiments.figures.run_experiment`, runs a grid through
the runner.  The experiment name → module table is in ``repro.cli``
(this package imports nothing, so a worker importing ``cells`` pays
for ``cells`` only); the paper artifact → module index is DESIGN.md §4.
"""
