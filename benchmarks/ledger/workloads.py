"""The four ledger workloads, their inputs and their output checks.

Each workload is one operating point of the stack (README.md says why
each exists):

- ``packet-figs``  ten packet-fidelity cells, one by one through
  ``execute_cell`` — the discrete-event core does the work;
- ``flow-figs``    192 heterogeneous flow cells through serial
  ``run_cells`` — the scalar ``FlowCall`` path, nothing to batch;
- ``fleet-wide``   one 512-lane ``run_fleet`` in batch mode — the array
  program plus bootstrap statistics;
- ``harness-cache`` cheap cells through the pool and the result cache,
  cold, warm twice, then shard and merge — the harness does the work.

A pass is built from scratch every time (fresh ``Cell`` objects, fresh
cache directory) so no per-instance memo carries from pass to pass.
``--seed`` only moves the cell seeds; the program sees generated cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemKind
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    Cell,
    Fidelity,
    ScenarioPaths,
    canonical_json,
    cell_key,
    make_cell,
)
from repro.experiments.fig14_15_comparison import RUNS
from repro.experiments.fleet import (
    FleetReport,
    FleetSpec,
    expand_fleet,
    run_fleet,
)
from repro.experiments.runner import RunReport, execute_cell, run_cells

Check = Tuple[str, bool]

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "tests" / "goldens"
REF_DURATION = 4.0
REF_SEED = 1
# Band normalisers of the reference sample, frozen here so a change to
# the tolerances in tests/test_flow_validation.py cannot move a metric.
REF_TPUT_REL = 0.50
REF_STALL_RATIO = 0.25
REF_FPS = 8.0
REF_E2E_P95_S = 0.25
REF_FRAME_DROPS = 30.0


@dataclass(frozen=True)
class Scale:
    """Cell counts and simulated lengths of one pass of each workload."""

    packet_duration: float
    flow_duration: float
    flow_seeds: int
    flow_extra_seeds: int
    fleet_lanes: int
    fleet_duration: float
    fleet_sampled_lanes: int
    cache_seeds: int
    cache_duration: float
    resamples: int
    min_passes: int


# README.md, "Cut from the issue's sizes", says why "full" is not the
# issue's 20 / 60 / 60 simulated seconds and 64 cache seeds.
SCALES = {
    "full": Scale(12.0, 30.0, 8, 4, 512, 30.0, 16, 40, 2.0, 1000, 5),
    "smoke": Scale(1.0, 2.0, 1, 1, 16, 2.0, 4, 2, 1.0, 50, 2),
}

CACHE_SCENARIOS = ("stationary", "walking", "driving")
CACHE_SYSTEMS = (SystemKind.CONVERGE, SystemKind.WEBRTC, SystemKind.MTPUT)
CACHE_SHARDS = 4
POOL_JOBS = min(2, os.cpu_count() or 1)


def seed_base(seed: int) -> int:
    """Benchmark seed -> first cell seed; runs with different ``--seed``
    share no cell."""
    return 1000 * seed + 1


def payload_digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Inputs


def packet_cells(seed: int, scale: Scale) -> List[Cell]:
    """The seven Fig. 14/15 rows on driving, Converge on stationary and
    walking, Converge on migration under path churn.

    Every cell gets its own seed: with one shared seed the seven
    driving rows replay one bandwidth trace, and the events in a pass
    then move by 27 % (interquartile, ten seeds) with ``--seed`` alone;
    with ten traces they move by 8 %.
    """
    first = seed_base(seed)
    duration = scale.packet_duration
    rows = [("driving", system, path_id, label, None)
            for system, path_id, label in RUNS]
    rows.append(("stationary", SystemKind.CONVERGE, 0, None, None))
    rows.append(("walking", SystemKind.CONVERGE, 0, None, None))
    rows.append(("migration", SystemKind.CONVERGE, 0, None, "path-churn"))
    return [
        make_cell(
            ScenarioPaths(scenario), system, seed=first + index,
            duration=duration, single_path_id=path_id, label=label,
            chaos=chaos,
        )
        for index, (scenario, system, path_id, label, chaos) in enumerate(rows)
    ]


FLOW_CHAOS = (
    ("rtcp-blackout", "driving"),
    ("loss-storm", "driving"),
    ("path-churn", "migration"),
)


def flow_cell_groups(seed: int, scale: Scale) -> List[List[Cell]]:
    """``flow-figs`` cells as [figure grid, two-stream, chaos]."""
    first = seed_base(seed)
    duration = scale.flow_duration
    grid = [
        make_cell(
            ScenarioPaths(scenario), system, seed=first + k,
            duration=duration, single_path_id=path_id, label=label,
            fidelity=Fidelity.FLOW,
        )
        for scenario in ("stationary", "walking", "driving")
        for system, path_id, label in RUNS
        for k in range(scale.flow_seeds)
    ]
    two_stream = [
        make_cell(
            ScenarioPaths("driving"), SystemKind.CONVERGE, seed=first + k,
            duration=duration, num_streams=2, fidelity=Fidelity.FLOW,
        )
        for k in range(len(FLOW_CHAOS) * scale.flow_extra_seeds)
    ]
    chaos = [
        make_cell(
            ScenarioPaths(scenario), SystemKind.CONVERGE, seed=first + k,
            duration=duration, chaos=name, fidelity=Fidelity.FLOW,
        )
        for name, scenario in FLOW_CHAOS
        for k in range(scale.flow_extra_seeds)
    ]
    return [grid, two_stream, chaos]


def flow_cells(seed: int, scale: Scale) -> List[Cell]:
    return [c for group in flow_cell_groups(seed, scale) for c in group]


def fleet_spec(seed: int, scale: Scale) -> FleetSpec:
    return FleetSpec.from_ranges(
        ["driving"], [SystemKind.CONVERGE], seed_base(seed),
        scale.fleet_lanes, scale.fleet_duration,
    )


def cache_spec(seed: int, scale: Scale) -> FleetSpec:
    return FleetSpec.from_ranges(
        CACHE_SCENARIOS, CACHE_SYSTEMS, seed_base(seed),
        scale.cache_seeds, scale.cache_duration,
    )


# ---------------------------------------------------------------------------
# Reference sample (the six golden cells) and its error against the goldens


def golden_names() -> List[str]:
    return sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))


def golden_record(name: str) -> Dict[str, Any]:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())  # type: ignore[no-any-return]


def reference_cell(name: str, fidelity: Fidelity) -> Cell:
    if name == "converge_path-churn":
        return make_cell(
            ScenarioPaths("migration"), SystemKind.CONVERGE, seed=REF_SEED,
            duration=REF_DURATION, chaos="path-churn", fidelity=fidelity,
        )
    return make_cell(
        ScenarioPaths("driving"), SystemKind(name), seed=REF_SEED,
        duration=REF_DURATION, fidelity=fidelity,
    )


def reference_errors(
    summary: Dict[str, Any], golden: Dict[str, Any]
) -> Dict[str, float]:
    """Deviation of one cell from its golden, in units of the band."""

    def gap(key: str) -> float:
        return abs(float(summary[key]) - float(golden[key]))

    return {
        "throughput_bps": gap("throughput_bps")
        / float(golden["throughput_bps"]) / REF_TPUT_REL,
        "stall_ratio": gap("freeze_total") / REF_DURATION / REF_STALL_RATIO,
        "average_fps": gap("average_fps") / REF_FPS,
        "e2e_p95": gap("e2e_p95") / REF_E2E_P95_S,
        "frame_drops": gap("frame_drops") / REF_FRAME_DROPS,
    }


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: fresh inputs, one pass, and what the pass delivered.

    The defaults suit inputs that are a list of cells; the two fleet
    workloads, whose inputs are specs, override them.
    """

    name = ""
    ref_fidelity = Fidelity.FLOW
    # Share of a pass that is array work: the weight of the numpy
    # calibration loop against the pure-Python one in this workload's
    # calibrated seconds (calibrate.blend); None for the host clock.
    numpy_share: Optional[float] = 0.0

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any, scratch: Path) -> Any:
        """The timed region: one pass over ``inputs``."""
        raise NotImplementedError

    def timed_pass(self, seed: int, pass_dir: Path) -> Tuple[Any, Any, float]:
        """One pass from scratch — fresh inputs, fresh directory — as
        ``(inputs, output, wall seconds of run() alone)``."""
        inputs = self.inputs(seed)
        pass_dir.mkdir()
        start = perf_counter()
        output = self.run(inputs, pass_dir)
        wall = perf_counter() - start
        shutil.rmtree(pass_dir)
        return inputs, output, wall

    def cells_delivered(self, inputs: Any) -> int:
        return len(inputs)

    def simulated_seconds(self, inputs: Any) -> float:
        return sum(cell.duration for cell in inputs)

    def failed_cells(self, output: Any) -> int:
        raise NotImplementedError

    def digests(self, output: Any) -> List[str]:
        """What the caller received, as digests (computed untimed)."""
        raise NotImplementedError

    def pass_checks(self, inputs: Any, output: Any) -> List[Check]:
        return []

    def reference_payloads(
        self, cells: Sequence[Cell], scratch: Path
    ) -> List[Dict[str, Any]]:
        """The reference sample, run the way this workload runs cells."""
        return [execute_cell(cell) for cell in cells]

    def extra_checks(self, seed: int) -> List[Check]:
        """Output checks that need more than a pass's output."""
        return []


class PacketFigs(Workload):
    name = "packet-figs"
    ref_fidelity = Fidelity.PACKET

    def inputs(self, seed: int) -> List[Cell]:
        return packet_cells(seed, self.scale)

    def run(self, inputs: List[Cell], scratch: Path) -> List[Optional[Dict[str, Any]]]:
        payloads: List[Optional[Dict[str, Any]]] = []
        for cell in inputs:
            try:
                payloads.append(execute_cell(cell))
            except Exception:  # noqa: BLE001 — a failed cell is counted, not fatal
                payloads.append(None)
        return payloads

    def failed_cells(self, output: List[Optional[Dict[str, Any]]]) -> int:
        return sum(1 for payload in output if payload is None)

    def digests(self, output: List[Optional[Dict[str, Any]]]) -> List[str]:
        return [payload_digest(payload) for payload in output]


class FlowFigs(Workload):
    name = "flow-figs"

    def inputs(self, seed: int) -> List[Cell]:
        return flow_cells(seed, self.scale)

    def run(self, inputs: List[Cell], scratch: Path) -> RunReport:
        return run_cells(inputs, jobs=1, mode="scalar", cache=None)

    def failed_cells(self, output: RunReport) -> int:
        return output.stats.errors

    def digests(self, output: RunReport) -> List[str]:
        return [
            payload_digest(o.summary.data if o.summary else None)
            for o in output.outcomes
        ]


def report_digests(report: FleetReport) -> List[str]:
    return [payload_digest(group.payload()) for group in report.groups]


class FleetWide(Workload):
    name = "fleet-wide"
    # execute_batch is 70 % of a traced pass, the pure-Python bootstrap
    # in fleet_statistics the rest.
    numpy_share = 0.7

    def inputs(self, seed: int) -> FleetSpec:
        return fleet_spec(seed, self.scale)

    def run(self, inputs: FleetSpec, scratch: Path) -> FleetReport:
        return run_fleet(
            inputs, jobs=1, mode="batch", resamples=self.scale.resamples
        )

    def cells_delivered(self, inputs: FleetSpec) -> int:
        return inputs.cell_count

    def simulated_seconds(self, inputs: FleetSpec) -> float:
        return inputs.cell_count * inputs.duration

    def failed_cells(self, output: FleetReport) -> int:
        return output.stats.errors

    def digests(self, output: FleetReport) -> List[str]:
        return report_digests(output)

    def reference_payloads(
        self, cells: Sequence[Cell], scratch: Path
    ) -> List[Dict[str, Any]]:
        report = run_cells(list(cells), jobs=1, mode="batch", cache=None)
        return [o.summary.data for o in report.outcomes if o.summary]

    def extra_checks(self, seed: int) -> List[Check]:
        """Sampled lanes of the wide batch equal their scalar payloads."""
        cells = expand_fleet(fleet_spec(seed, self.scale))
        batch = run_cells(cells, jobs=1, mode="batch", cache=None)
        lanes = self.scale.fleet_sampled_lanes
        stride = max(len(cells) // lanes, 1)
        checks: List[Check] = []
        for index in range(0, len(cells), stride)[:lanes]:
            outcome = batch.outcomes[index]
            scalar = json.loads(canonical_json(execute_cell(cells[index])))
            checks.append((
                f"lane-{index}-equals-scalar",
                outcome.summary is not None
                and canonical_json(outcome.summary.data) == canonical_json(scalar),
            ))
        return checks


@dataclass
class CachePassOutput:
    cold: FleetReport
    warm: List[FleetReport]
    shard_counts: List[int]
    merged: Dict[str, int]


class HarnessCache(Workload):
    name = "harness-cache"
    # Two workers, a parent that waits for them, and the disk: over five
    # sets of ten runs the host-clock median moved by 5 % at most, the
    # loop-calibrated one by 13 % (README.md).
    numpy_share = None

    def inputs(self, seed: int) -> List[FleetSpec]:
        # One spec per run_fleet call, so the warm calls key fresh cells.
        return [cache_spec(seed, self.scale) for _ in range(3)]

    def run(self, inputs: List[FleetSpec], scratch: Path) -> CachePassOutput:
        store = scratch / "cache"
        reports = [
            run_fleet(
                spec, jobs=POOL_JOBS, mode="scalar", cache=store,
                resamples=self.scale.resamples,
            )
            for spec in inputs
        ]
        shard_dirs = [scratch / f"shard-{i}" for i in range(CACHE_SHARDS)]
        counts = ResultCache(store).shard(shard_dirs)
        merged = ResultCache(scratch / "merged").merge(shard_dirs)
        return CachePassOutput(reports[0], reports[1:], counts, merged)

    def cells_delivered(self, inputs: List[FleetSpec]) -> int:
        return sum(spec.cell_count for spec in inputs)

    def simulated_seconds(self, inputs: List[FleetSpec]) -> float:
        # Only the cold call simulates; warm calls are served from disk.
        return inputs[0].cell_count * inputs[0].duration

    def failed_cells(self, output: CachePassOutput) -> int:
        return sum(r.stats.errors for r in [output.cold, *output.warm])

    def digests(self, output: CachePassOutput) -> List[str]:
        return report_digests(output.cold)

    def pass_checks(
        self, inputs: List[FleetSpec], output: CachePassOutput
    ) -> List[Check]:
        cells = inputs[0].cell_count
        cold = report_digests(output.cold)
        checks: List[Check] = [("cold-all-executed",
                                output.cold.stats.executed == cells)]
        for index, warm in enumerate(output.warm):
            checks.append((f"warm{index + 1}-equals-cold",
                           report_digests(warm) == cold))
            checks.append((f"warm{index + 1}-all-hits",
                           warm.stats.cache_hits == cells))
        checks.append(("shards-hold-every-entry",
                       sum(output.shard_counts) == cells))
        checks.append(("merge-restores-every-entry",
                       output.merged == {"merged": cells, "skipped": 0}))
        return checks

    def reference_payloads(
        self, cells: Sequence[Cell], scratch: Path
    ) -> List[Dict[str, Any]]:
        cache = ResultCache(scratch / "reference-cache")
        payloads = []
        for cell in cells:
            key = cell_key(cell)
            payload = json.loads(canonical_json(execute_cell(cell)))
            cache.put(key, cell.resolved(), payload, 0.0)
            entry = cache.get(key)
            payloads.append(entry.summary if entry is not None else {})
        return payloads


WORKLOADS = {
    cls.name: cls for cls in (PacketFigs, FlowFigs, FleetWide, HarnessCache)
}


# ---------------------------------------------------------------------------
# The reference sample against the goldens


def reference_checks(
    workload: Workload, scratch: Path
) -> Tuple[float, str, List[Check]]:
    """Run the reference sample; return (max error, where, checks).

    At packet fidelity every cell must reproduce its golden's
    ``payload_sha256``; at either fidelity a cell must come back.
    """
    names = golden_names()
    cells = [reference_cell(name, workload.ref_fidelity) for name in names]
    payloads = workload.reference_payloads(cells, scratch)
    worst, where = 0.0, ""
    checks: List[Check] = [("reference-sample-complete",
                            len(payloads) == len(names) > 0)]
    for name, payload in zip(names, payloads):
        golden = golden_record(name)
        if "summary" not in payload:
            checks.append((f"reference-cell-came-back:{name}", False))
            continue
        if workload.ref_fidelity is Fidelity.PACKET:
            checks.append((
                f"golden-sha256:{name}",
                payload_digest(payload) == golden["payload_sha256"],
            ))
        errors = reference_errors(payload["summary"], golden["summary"])
        for metric, error in errors.items():
            if error > worst:
                worst, where = error, f"{name}:{metric}"
    return worst, where, checks

