"""Fleet engine: seeded scenario-matrix Monte Carlo sweeps.

Real deployments are judged on QoE *distributions*, not single seeds:
the paper's comparison figures average a handful of runs, but the
long-tail claims (stall ratio at p95, drop counts under churny
cellular traces) need thousands of seeds per configuration.  A
:class:`FleetSpec` declares such a matrix — scenarios × systems × a
seed range — and :func:`run_fleet` expands it into cells, executes
them through the cached runner (which array-batches a flow group
where that is faster), and reduces each ``(scenario, system)`` group to
distribution statistics with bootstrap confidence intervals.

Determinism contract: the report is a pure function of the spec and
the per-cell summaries.  Statistics are computed *after* aggregation,
keyed only by the cell's position in the expansion order, and the
bootstrap RNG is seeded from the group/metric label — so a fleet
assembled from shard caches merged in any order is byte-identical to
one computed in a single unsharded run (pinned by the property tests).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import bootstrap_ci, describe
from repro.core.config import SystemKind
from repro.experiments.cache import ResultCache
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths, expand_grid
from repro.experiments.runner import (
    CellOutcome,
    CellSummary,
    RunStats,
    stream_cells,
)

# The QoE metrics a fleet reduces; each is a scalar in every cell
# summary.  ``freeze_total`` is reported per call (seconds frozen) —
# divide by the spec duration for the paper's stall ratio.
FLEET_METRICS: Tuple[str, ...] = (
    "throughput_bps",
    "average_fps",
    "e2e_p95",
    "freeze_total",
    "average_qp",
    "frame_drops",
)


@dataclass(frozen=True)
class FleetSpec:
    """One declarative scenario-matrix sweep."""

    scenarios: Tuple[str, ...]
    systems: Tuple[SystemKind, ...]
    seeds: Tuple[int, ...]
    duration: float = 30.0
    fidelity: Fidelity = Fidelity.FLOW
    num_streams: int = 1

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("fleet needs at least one scenario")
        if not self.systems:
            raise ValueError("fleet needs at least one system")
        if not self.seeds:
            raise ValueError("fleet needs at least one seed")
        if self.duration <= 0:
            raise ValueError("fleet duration must be positive")
        if isinstance(self.fidelity, str):
            object.__setattr__(self, "fidelity", Fidelity(self.fidelity))

    @staticmethod
    def from_ranges(
        scenarios: Sequence[str],
        systems: Sequence[SystemKind],
        seed_start: int,
        seed_count: int,
        duration: float,
        fidelity: Union[Fidelity, str] = Fidelity.FLOW,
        num_streams: int = 1,
    ) -> "FleetSpec":
        """The CLI shape: a contiguous seed range per matrix point."""
        if seed_count < 1:
            raise ValueError("fleet needs at least one seed")
        return FleetSpec(
            scenarios=tuple(scenarios),
            systems=tuple(systems),
            seeds=tuple(range(seed_start, seed_start + seed_count)),
            duration=duration,
            fidelity=Fidelity(fidelity),
            num_streams=num_streams,
        )

    @property
    def cell_count(self) -> int:
        return len(self.scenarios) * len(self.systems) * len(self.seeds)


def expand_fleet(spec: FleetSpec) -> List[Cell]:
    """The spec's cells: scenarios outermost, seeds innermost.

    The expansion order is the grouping contract — statistics consume
    outcomes in contiguous ``len(spec.seeds)`` runs per
    ``(scenario, system)`` point.
    """
    return expand_grid(
        [ScenarioPaths(scenario) for scenario in spec.scenarios],
        spec.systems,
        spec.seeds,
        duration=spec.duration,
        num_streams=spec.num_streams,
        fidelity=spec.fidelity,
    )


@dataclass
class FleetGroup:
    """Distribution statistics for one (scenario, system) matrix point."""

    scenario: str
    system: str
    n: int
    failed: int
    # metric -> describe() keys plus ci_lo / ci_hi for the mean.
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "system": self.system,
            "n": self.n,
            "failed": self.failed,
            "metrics": self.metrics,
        }


@dataclass
class FleetReport:
    """The fleet's reduced view plus the underlying sweep stats."""

    spec: FleetSpec
    groups: List[FleetGroup]
    stats: RunStats
    confidence: float
    resamples: int

    def payload(self) -> Dict[str, Any]:
        return {
            "spec": {
                "scenarios": list(self.spec.scenarios),
                "systems": [s.value for s in self.spec.systems],
                "seeds": list(self.spec.seeds),
                "duration": self.spec.duration,
                "fidelity": self.spec.fidelity.value,
                "num_streams": self.spec.num_streams,
            },
            "confidence": self.confidence,
            "resamples": self.resamples,
            "groups": [group.payload() for group in self.groups],
            "stats": self.stats.payload(),
        }


# One cell as the statistics see it: its ``FLEET_METRICS`` values in
# that order, or ``None`` for a failed cell.
MetricRow = Optional[Tuple[float, ...]]


def _metric_row(summary: Optional[CellSummary]) -> MetricRow:
    if summary is None:
        return None
    return tuple(float(summary.summary[metric]) for metric in FLEET_METRICS)


def fleet_statistics(
    spec: FleetSpec,
    summaries: Sequence[Optional[CellSummary]],
    confidence: float = 0.95,
    resamples: int = 1000,
) -> List[FleetGroup]:
    """Reduce per-cell summaries to per-group distribution statistics.

    ``summaries`` must align with :func:`expand_fleet` order (failed
    cells as ``None``).  Pure and deterministic: no wall clock, no
    shared RNG — the bootstrap stream is derived from the group/metric
    label, so the result is independent of how (or where) the
    summaries were computed.
    """
    return _reduce_rows(
        spec, [_metric_row(s) for s in summaries], confidence, resamples
    )


def _reduce_rows(
    spec: FleetSpec,
    rows: Sequence[MetricRow],
    confidence: float,
    resamples: int,
) -> List[FleetGroup]:
    """The statistics themselves, over one metric row per cell."""
    if len(rows) != spec.cell_count:
        raise ValueError(
            f"expected {spec.cell_count} summaries for the spec, "
            f"got {len(rows)}"
        )
    groups: List[FleetGroup] = []
    per_point = len(spec.seeds)
    index = 0
    for scenario in spec.scenarios:
        for system in spec.systems:
            chunk = rows[index:index + per_point]
            index += per_point
            good = [row for row in chunk if row is not None]
            group = FleetGroup(
                scenario=scenario,
                system=system.value,
                n=len(good),
                failed=per_point - len(good),
            )
            for column, metric in enumerate(FLEET_METRICS):
                values = [row[column] for row in good]
                if not values:
                    continue
                described = describe(values)
                lo, hi = bootstrap_ci(
                    values,
                    confidence=confidence,
                    resamples=resamples,
                    seed_label=f"{scenario}/{system.value}/{metric}",
                )
                described["ci_lo"] = lo
                described["ci_hi"] = hi
                group.metrics[metric] = described
            groups.append(group)
    return groups


def run_fleet(
    spec: FleetSpec,
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    progress: bool = False,
    cell_timeout: Optional[float] = None,
    mode: Optional[str] = None,
    confidence: float = 0.95,
    resamples: int = 1000,
) -> FleetReport:
    """Expand, execute and reduce one fleet spec.

    Execution goes through :func:`repro.experiments.runner.stream_cells`
    — content-addressed caching, per-cell quarantine and deadline, and
    the runner's choice of engine (``mode`` unset: a seed group is one
    array batch only where that beats the workers and no deadline is
    set) all apply — so a fleet can be split across machines by
    sharding the seed range and recombined with ``repro cache merge``.
    Of each cell only its metric row outlives its delivery, so the
    fleet's footprint is one array batch however many seeds it has.
    """
    cells = expand_fleet(spec)
    rows: List[MetricRow] = [None] * len(cells)

    def reduce(outcome: CellOutcome, positions: Sequence[int]) -> None:
        row = _metric_row(outcome.summary)
        for index in positions:
            rows[index] = row

    stats = stream_cells(
        cells,
        reduce,
        jobs=jobs,
        cache=cache,
        progress=progress,
        cell_timeout=cell_timeout,
        mode=mode,
    )
    return FleetReport(
        spec=spec,
        groups=_reduce_rows(spec, rows, confidence, resamples),
        stats=stats,
        confidence=confidence,
        resamples=resamples,
    )
