"""The experiment driver: a figure is a grid of cells and a table.

An experiment module states only what differs between figures —
``cells(duration, seed, fidelity, **grid)``, its grid of calls, and
``render(rows)``, the text of the paper's table or figure over rows
that pair each cell with its ``CellSummary`` — and
:func:`run_experiment` is the one place a grid meets the runner, so a
figure is one pool and every figure reads a metric under the one name
``CellSummary`` gives it.  :class:`Table` states a printed table that
is one line per row (``render = tables(Table(...), ...)`` is a whole
figure of them); what aggregates rows (Table 4's seed means, Table 5's
pairwise improvements, the Fig. 1/11 charts) is a plain function in
its module.  Adding an experiment: DESIGN.md §4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.cells import Cell, Fidelity
from repro.experiments.runner import CellSummary, results_of, run_cells
from repro.metrics.report import format_table

# One finished cell of a grid, and one printed column: its header and
# how to read its value off a row.
Row = Tuple[Cell, CellSummary]
Column = Tuple[str, Callable[[Cell, CellSummary], object]]


def run_experiment(
    module: ModuleType,
    duration: float,
    seed: int,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    progress: bool = False,
    cell_timeout: Optional[float] = None,
    **grid: Any,
) -> List[Row]:
    """Run ``module``'s grid; one row per cell, in grid order.

    ``grid`` overrides the module's default grid (stream counts, loss
    rates, …); the runner arguments are ``run_cells``'s.  A figure with
    a hole is no figure: a failed cell raises ``CellFailure``.
    """
    cells: List[Cell] = module.cells(duration, seed, fidelity, **grid)
    report = run_cells(
        cells,
        jobs=jobs,
        cache=cache,
        progress=progress,
        cell_timeout=cell_timeout,
    )
    return list(zip(cells, results_of(report)))


@dataclass(frozen=True)
class Table:
    """A printed table with one line per row."""

    title: str
    columns: Sequence[Column]

    def render(self, rows: Sequence[Row]) -> str:
        return self.title + "\n" + format_table(
            [header for header, _ in self.columns],
            [
                [read(cell, summary) for _, read in self.columns]
                for cell, summary in rows
            ],
        )


def tables(*parts: Table) -> Callable[[Sequence[Row]], str]:
    """``render`` for a figure that is these tables over its rows, a
    blank line between them."""
    return lambda rows: "\n\n".join(table.render(rows) for table in parts)


# Columns more than one figure prints, under the headers they share.
STREAMS: Column = ("#", lambda cell, _: cell.num_streams)
SYSTEM: Column = ("system", lambda _, summary: summary.label)
# Normalized QoE per §6 (Figs. 10, 14(a) and 17).
NORMALIZED: Tuple[Column, ...] = (
    ("norm tput", lambda _, summary: summary.normalized()["throughput"]),
    ("norm FPS", lambda _, summary: summary.normalized()["fps"]),
    ("stall frac", lambda _, summary: summary.normalized()["stall"]),
    ("norm QP", lambda _, summary: summary.normalized()["qp"]),
)
# FEC economics (Tables 3 and 6, Fig. 14(b)).
FEC_PERCENT: Tuple[Column, ...] = (
    ("FEC overhead %", lambda _, summary: 100 * summary.fec_overhead),
    ("FEC util %", lambda _, summary: 100 * summary.fec_utilization),
)
