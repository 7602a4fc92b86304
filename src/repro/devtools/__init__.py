"""Static-analysis tooling for the simulator's own invariants.

The correctness of this reproduction rests on properties no generic
linter checks: byte-identical determinism of everything that runs
inside a cell and seeded-RNG discipline in the process-pool runner.
:mod:`repro.devtools.analyze` enforces them in one pass — local AST
rules (R004-R007) and the simulated-code scan R101 — runnable as
``repro analyze`` or ``python -m repro.devtools.analyze``; see
DEVTOOLS.md for the rule catalogue, scope and waiver syntax.
"""
