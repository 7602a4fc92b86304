"""Test helpers: watch the array program build its payloads, and make
a chosen cell fail.

``_BatchFlowRun._cell_payload`` is the one place a batched cell's
result dict comes into being, so wrapping it shows *when* each payload
is built (the laziness tests) and lets a test make one lane fail (the
mid-chunk failure tests).
"""

from repro.experiments import runner
from repro.flow.batch import _BatchFlowRun


def watch_payload_builds(monkeypatch, on_build):
    """Call ``on_build(lane, cell)`` before each payload is built; an
    exception it raises is the payload build's own."""
    real = _BatchFlowRun._cell_payload

    def watched(self, lane, cell, *rest):
        on_build(lane, cell)
        return real(self, lane, cell, *rest)

    monkeypatch.setattr(_BatchFlowRun, "_cell_payload", watched)


def poison_seed(monkeypatch, seed):
    """Make the cell with this seed fail, on the array backend and on
    the scalar one (in this process and in pool workers forked from
    it)."""

    def poison(cell):
        if cell.seed == seed:
            raise RuntimeError("poisoned cell")

    watch_payload_builds(monkeypatch, lambda lane, cell: poison(cell))
    real_execute = runner.execute_cell

    def execute(cell):
        poison(cell)
        return real_execute(cell)

    monkeypatch.setattr(runner, "execute_cell", execute)
