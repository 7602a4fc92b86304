"""Supervised multi-process experiment runner with result caching.

Every paper figure reduces to a list of independent
``(scenario × system × seed)`` :class:`~repro.experiments.cells.Cell`
jobs.  This module executes such a list:

- across ``jobs`` worker processes (default ``os.cpu_count()``), each
  cell rebuilding its paths and re-seeding ``RandomStreams(seed)`` so
  results are byte-identical to a serial run;
- through a content-addressed on-disk cache
  (:class:`~repro.experiments.cache.ResultCache`), so no cell is ever
  simulated twice;
- with failure isolation: a crashing cell yields a structured
  :class:`CellOutcome` error instead of killing the sweep;
- with poison-cell containment: an optional per-cell wall-clock
  deadline that the parent enforces by killing the worker, one re-run
  for a cell that overran or took its worker down, and quarantine — a
  cell that raises (it would raise again: a simulation is a pure
  function of its cell) or is lost on every attempt is reported in
  the run summary, never raised mid-sweep;
- with per-cell progress lines and wall-clock/cache-hit statistics
  (:class:`RunStats`) that the benchmarks export.

Duplicate cells in the input are executed once and fanned back out, so
experiment modules can express their natural grids without worrying
about redundancy.

One driver, :func:`stream_cells`, does all of the above and hands each
finished cell to its caller's sink exactly once.  :func:`run_cells` is
the caller that files every outcome into a :class:`RunReport`;
:func:`repro.experiments.fleet.run_fleet` is the one that takes six
floats from each and lets the payload go (DESIGN.md §11).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TextIO,
    Tuple,
    Union,
)

from repro.experiments.cache import ResultCache
from repro.experiments.cells import Cell, cell_key

if TYPE_CHECKING:
    from repro.simulation.profiling import SimProfiler

# Cell execution time one chunk should carry: two orders over what a
# chunk costs to pickle, send and hand back (~0.5 ms), and short enough
# that the workers finish together.
_TASK_SECONDS = 0.05

# Largest single array-batch handed to the flow batch engine: bounds
# the state arrays of one group (a 60 s call at 1024 cells is about
# 75 MiB of live state: 115 MiB peak RSS, 40 of them the bare
# interpreter with numpy and repro imported) without limiting sweep
# size.
_MAX_BATCH_CELLS = 1024

# What one array batch costs, in scalar cells: a group, and each of its
# lanes.  Both are ratios the ledger reports per layer, measured at
# e2eaaa5 on 2 vCPU with 30 s cells (simulated duration cancels):
# flow.batch_fixed_ms / flow.call_ms = 570 / 8.0 and
# flow.batch_lane_ms / flow.call_ms = 2.0 / 8.0.
_BATCH_FIXED_COST = 70.0
_BATCH_LANE_COST = 0.25


# ---------------------------------------------------------------------------
# Cell summaries: what the cache stores and experiments consume


class CellSummary:
    """A JSON-able view of one finished call.

    Wraps the flattened payload of
    :func:`repro.analysis.export.result_to_dict` (plus the fps series
    and PSNR samples) with the accessors the experiment modules use.
    Whether the payload came from a fresh simulation, a worker process
    or the cache is invisible here — the bytes are identical.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    # -- identity -----------------------------------------------------------

    @property
    def label(self) -> str:
        return self.data["label"]

    @property
    def config(self) -> Dict[str, Any]:
        return self.data["config"]

    @property
    def summary(self) -> Dict[str, Any]:
        return self.data["summary"]

    # -- scalar QoE metrics -------------------------------------------------

    @property
    def frames_rendered(self) -> int:
        return self.summary["frames_rendered"]

    @property
    def average_fps(self) -> float:
        return self.summary["average_fps"]

    @property
    def throughput_bps(self) -> float:
        return self.summary["throughput_bps"]

    @property
    def e2e_mean(self) -> float:
        return self.summary["e2e_mean"]

    @property
    def e2e_std(self) -> float:
        return self.summary["e2e_std"]

    @property
    def e2e_p95(self) -> float:
        return self.summary["e2e_p95"]

    @property
    def freeze_count(self) -> int:
        return self.summary["freeze_count"]

    @property
    def freeze_total(self) -> float:
        return self.summary["freeze_total"]

    @property
    def freeze_mean(self) -> float:
        return self.summary["freeze_mean"]

    @property
    def average_qp(self) -> float:
        return self.summary["average_qp"]

    @property
    def average_psnr(self) -> float:
        return self.summary["average_psnr"]

    @property
    def psnr_samples(self) -> List[float]:
        return self.summary["psnr_samples"]

    @property
    def psnr_p10(self) -> float:
        samples = sorted(self.psnr_samples)
        if not samples:
            return 0.0
        return samples[int(0.1 * len(samples))]

    @property
    def fec_overhead(self) -> float:
        return self.summary["fec_overhead"]

    @property
    def fec_utilization(self) -> float:
        return self.summary["fec_utilization"]

    @property
    def frame_drops(self) -> int:
        return self.summary["frame_drops"]

    @property
    def keyframe_requests(self) -> int:
        return self.summary["keyframe_requests"]

    def normalized(
        self,
        max_rate_per_stream: float = 10_000_000.0,
        target_fps: float = 24.0,
        worst_qp: float = 60.0,
    ) -> Dict[str, float]:
        """Normalized QoE per §6: throughput/10 Mbps a stream, FPS/24,
        stalled share of the call, QP/60."""
        duration = self.config["duration"]
        num_streams = self.config["num_streams"]
        return {
            "throughput": self.throughput_bps
            / (max_rate_per_stream * num_streams),
            "fps": self.average_fps / target_fps,
            "stall": self.freeze_total / max(duration, 1e-9),
            "qp": self.average_qp / worst_qp,
        }

    # -- time series ----------------------------------------------------------

    def series(self, name: str) -> Dict[str, List[float]]:
        return self.data["series"][name]

    def series_pairs(self, name: str) -> List[Tuple[float, float]]:
        data = self.series(name)
        return list(zip(data["times"], data["values"]))

    def series_values(self, name: str) -> List[float]:
        return self.series(name)["values"]

    def series_mean(self, name: str) -> float:
        values = self.series_values(name)
        if not values:
            return 0.0
        return sum(values) / len(values)

    # -- faults ----------------------------------------------------------------

    @property
    def faults(self) -> Dict[str, Any]:
        return self.data.get("faults", {"injected": [], "recovery": []})


@dataclass
class CellOutcome:
    """The runner's verdict on one cell: a summary or a structured error."""

    cell: Cell
    key: str
    summary: Optional[CellSummary] = None
    error: Optional[Dict[str, str]] = None
    cached: bool = False
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.summary is not None


class CellFailure(RuntimeError):
    """Raised by :func:`results_of` when a sweep cell errored."""

    def __init__(self, outcome: CellOutcome) -> None:
        error = outcome.error or {}
        super().__init__(
            f"cell {outcome.cell.effective_label!r} "
            f"(seed {outcome.cell.seed}) failed: "
            f"{error.get('type', 'Error')}: {error.get('message', '')}"
        )
        self.outcome = outcome


@dataclass
class RunStats:
    """Wall-clock and cache accounting for one ``run_cells`` sweep."""

    cells_total: int = 0
    cells_unique: int = 0
    executed: int = 0
    cache_hits: int = 0
    errors: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    # Sum of simulated call time across unique cells (the work avoided
    # by dedup/caching is cells_total*duration - this).
    simulated_seconds: float = 0.0
    # Sum of per-cell execution wall time (serial-equivalent cost).
    executed_wall_seconds: float = 0.0
    # Poison-cell containment accounting.  ``timeouts`` counts
    # distinct cells that timed out, not attempts: a quarantined
    # cell's automatic retry is the same timeout, not a second one.
    timeouts: int = 0
    retried: int = 0
    quarantined: List[str] = field(default_factory=list)
    # Cells the array program delivered; cells whose array batch raised
    # and that the scalar path re-ran (right answers, several times
    # slower); the first such failure as ``type: message``.
    batched: int = 0
    batch_fallbacks: int = 0
    batch_fallback_error: Optional[str] = None
    _timeout_keys: Set[str] = field(default_factory=set, repr=False)

    def note_timeout(self, key: str) -> None:
        """Count a timed-out cell once, however many attempts it burns."""
        if key not in self._timeout_keys:
            self._timeout_keys.add(key)
            self.timeouts += 1

    @property
    def cache_hit_rate(self) -> float:
        if self.cells_unique == 0:
            return 0.0
        return self.cache_hits / self.cells_unique

    def payload(self) -> Dict[str, Any]:
        """The statistics as JSON-able data (run and fleet reports)."""
        return {
            "cells_total": self.cells_total,
            "cells_unique": self.cells_unique,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "errors": self.errors,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "executed_wall_seconds": self.executed_wall_seconds,
            "timeouts": self.timeouts,
            "retried": self.retried,
            "quarantined": list(self.quarantined),
            "batched": self.batched,
            "batch_fallbacks": self.batch_fallbacks,
            "batch_fallback_error": self.batch_fallback_error,
        }


@dataclass
class RunReport:
    """Outcomes in input order plus the sweep statistics."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)

    def summaries(self) -> List[Optional[CellSummary]]:
        return [o.summary for o in self.outcomes]

    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


def results_of(report: RunReport) -> List[CellSummary]:
    """All summaries of a report, raising on the first failed cell.

    Experiment modules use this: a sweep with a crashed cell should
    fail loudly at the point of consumption, with the structured error
    attached, not produce a figure with silent holes.
    """
    for outcome in report.outcomes:
        if not outcome.ok:
            raise CellFailure(outcome)
    return [o.summary for o in report.outcomes]  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Worker-side execution


def execute_cell(
    cell: Cell, profiler: Optional["SimProfiler"] = None
) -> Dict[str, Any]:
    """Run one cell to completion; the module-level worker entry point.

    The summary payload dict of :func:`repro.experiments.common.run_cell`
    (the cell's result depends only on the cell — the property the whole
    runner rests on).  ``profiler`` is passed through to the call (used
    by ``repro profile``, which runs cells serially in-process).
    """
    from repro.analysis.export import result_to_dict
    from repro.experiments.common import run_cell

    return result_to_dict(run_cell(cell, profiler))


def _run_guarded(cell: Cell) -> Dict[str, Any]:
    """Run one cell; any exception becomes a structured error.

    Exceptions are flattened to plain data so the parent never has to
    unpickle arbitrary exception types from a worker, and a cell that
    raises cannot end the sweep.
    """
    start = time.perf_counter()
    try:
        # ``execute_cell`` returns the payload in normal form (the
        # contract of ``analysis.export.result_to_dict``): the object
        # shape a cache hit decodes to, so serial, pooled and cached
        # runs compare with plain ``==`` and nothing re-encodes here.
        return {
            "ok": True,
            "summary": execute_cell(cell),
            "wall_seconds": time.perf_counter() - start,
        }
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        return {
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            "wall_seconds": time.perf_counter() - start,
        }


# ---------------------------------------------------------------------------
# The orchestrator


def default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"REPRO_JOBS is not a positive integer: {env!r}")
        return jobs
    return os.cpu_count() or 1


def _batch_pays(lanes: int, workers: int) -> bool:
    """Whether one array batch of ``lanes`` cells in this process beats
    the scalar loop over ``workers``: from 94 lanes on one worker, 280
    on two, ~840 on three, never from four."""
    return lanes * (1.0 / workers - _BATCH_LANE_COST) >= _BATCH_FIXED_COST


# What a consumer of :func:`stream_cells` is handed, once per unique
# cell: the outcome and every input position it answers.
CellSink = Callable[[CellOutcome, Sequence[int]], None]


def stream_cells(
    cells: Sequence[Cell],
    sink: CellSink,
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    progress: bool = False,
    cell_timeout: Optional[float] = None,
    retries: int = 1,
    mode: Optional[str] = None,
) -> RunStats:
    """Execute ``cells``, handing each result to ``sink`` as it lands.

    The one driver behind :func:`run_cells` (which documents the other
    arguments) and :func:`repro.experiments.fleet.run_fleet`: dedup,
    cache pass, array batches, then the in-process loop or the
    supervised workers.
    ``sink(outcome, positions)`` is called exactly once per unique
    cell, in completion order (cache hits first, then batched cells
    lane by lane, then the rest as they finish), with the indices in
    ``cells`` that the outcome answers.  The driver holds no outcome
    once ``sink`` returns, so what a sweep keeps in memory is its
    consumer's choice.
    """
    if mode not in (None, "scalar", "batch"):
        raise ValueError(f"unknown run_cells mode: {mode!r}")
    start = time.perf_counter()
    jobs = default_jobs() if jobs is None else max(int(jobs), 1)
    store: Optional[ResultCache] = None
    if cache is not None:
        store = cache if isinstance(cache, ResultCache) else ResultCache(cache)

    stats = RunStats(cells_total=len(cells), jobs=jobs)

    # Deduplicate: identical cells (by content key) run once.
    positions: Dict[str, List[int]] = {}
    unique: Dict[str, Cell] = {}
    for index, cell in enumerate(cells):
        key = cell_key(cell)
        positions.setdefault(key, []).append(index)
        unique.setdefault(key, cell)
    stats.cells_unique = len(unique)
    stats.simulated_seconds = sum(c.duration for c in unique.values())

    done = 0

    def finish(key: str, outcome: CellOutcome) -> None:
        nonlocal done
        done += 1
        if outcome.ok:
            if outcome.cached:
                stats.cache_hits += 1
            else:
                stats.executed += 1
        else:
            stats.errors += 1
            stats.quarantined.append(
                f"{outcome.cell.effective_label} seed={outcome.cell.seed}"
            )
        stats.executed_wall_seconds += outcome.wall_seconds
        sink(outcome, positions[key])
        if progress:
            elapsed = time.perf_counter() - start
            _progress_line(done, len(unique), outcome, elapsed)

    # Cache pass: satisfy what we can without touching a worker.
    pending: List[str] = []
    for key, cell in unique.items():
        entry = store.get(key) if store is not None else None
        if entry is not None:
            finish(
                key,
                CellOutcome(
                    cell=cell,
                    key=key,
                    summary=CellSummary(entry.summary),
                    cached=True,
                    wall_seconds=0.0,
                ),
            )
        else:
            pending.append(key)

    if cell_timeout is not None and cell_timeout <= 0:
        cell_timeout = None
    workers = min(jobs, os.cpu_count() or 1)

    def pays(lanes: int) -> bool:
        """Whether a group this wide goes to the array program: pinned,
        all or none; unset, none under a deadline (a batch is stepped
        in this process, where nobody can enforce one)."""
        if mode is None:
            return cell_timeout is None and _batch_pays(lanes, workers)
        return mode == "batch"

    # No group is wider than what is pending: most runs plan nothing.
    if pending and pays(len(pending)):
        items = [(key, unique[key]) for key in pending]
        pending = _run_batched(items, store, finish, stats, pays)

    if cell_timeout is None and (jobs <= 1 or len(pending) <= 1):
        for key in pending:
            cell = unique[key]
            verdict = _run_guarded(cell)
            finish(key, _outcome_from_verdict(cell, key, verdict, store))
    elif pending:
        # A deadline needs someone outside the cell to enforce it, so
        # with one even a single cell or ``jobs=1`` gets a worker.
        items = [(key, unique[key]) for key in pending]
        _run_workers(items, jobs, store, finish, cell_timeout, retries, stats)

    stats.wall_seconds = time.perf_counter() - start
    if progress:
        _stats_line(stats)
    return stats


def run_cells(
    cells: Sequence[Cell],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    progress: bool = False,
    cell_timeout: Optional[float] = None,
    retries: int = 1,
    mode: Optional[str] = None,
) -> RunReport:
    """Execute ``cells``, fanning out across processes and the cache.

    ``jobs`` — worker processes; ``None`` means ``os.cpu_count()``
    (override with ``REPRO_JOBS``); ``1`` runs serially in-process
    (identical results, nothing pickled) unless ``cell_timeout`` is
    set.  ``cache`` — a :class:`ResultCache`, a directory path, or
    ``None`` to disable caching.  ``progress`` — emit one line per
    finished cell to stderr.  ``cell_timeout`` — per-cell wall-clock
    budget in seconds: a cell still running that long after it began
    has its worker process killed, whatever it is doing (so with a
    budget every cell runs in a worker, even under ``jobs=1``, and
    none in an array batch).  ``retries`` — re-runs of a cell that
    overran its budget or whose worker died, before it is quarantined:
    reported as a structured error in the run summary, never raised
    mid-sweep.  A cell that raises is quarantined at once: a
    simulation is a pure function of its cell, so it would raise again.
    ``mode`` — which flow engine serves a cell; the bytes are the same,
    so leave it unset and the runner decides: the cells the array
    program takes (:func:`repro.flow.batch.batchable`: default-config
    Converge at flow fidelity) form groups by resolved cell up to
    seed/label, and :func:`repro.flow.batch.iter_batch` steps a group
    as one array program in this process when no ``cell_timeout`` is
    set and :func:`_batch_pays`
    at ``workers = min(jobs, os.cpu_count())``; the rest takes the path
    above.  The pins are each other's reference in tests and the
    ledger: ``"scalar"`` batches nothing, ``"batch"`` every group.

    Returns a :class:`RunReport` with outcomes in input order: the
    :func:`stream_cells` consumer that keeps every outcome.
    """
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)

    def file(outcome: CellOutcome, positions: Sequence[int]) -> None:
        for index in positions:
            outcomes[index] = outcome

    stats = stream_cells(
        cells,
        file,
        jobs=jobs,
        cache=cache,
        progress=progress,
        cell_timeout=cell_timeout,
        retries=retries,
        mode=mode,
    )
    return RunReport(
        outcomes=[o for o in outcomes if o is not None], stats=stats
    )


def _run_batched(
    items: Sequence[Tuple[str, Cell]],
    store: Optional[ResultCache],
    finish: Callable[[str, "CellOutcome"], None],
    stats: RunStats,
    pays: Callable[[int], bool],
) -> List[str]:
    """Execute what the array backend should take; return the leftovers.

    Batchable cells are grouped by structural identity, a group whose
    width ``pays`` is stepped together in
    :func:`repro.flow.batch.iter_batch` (in chunks, so that one
    group's ``(T, B)`` state stays bounded), and each payload is
    finished — stored, handed on, dropped — before the next is built.
    Results are byte-identical to the scalar path (pinned by
    tests/test_flow_batch.py): a lane's payload is ``result_to_dict``
    of its own ``MetricsCollector``, as a scalar cell's is, so cache
    entries and outcomes are indistinguishable from per-process
    execution without any normalization pass.  Cells the planner
    rejects, the narrower groups, and the cells a failing chunk had
    not delivered yet (counted in ``stats.batch_fallbacks``) are
    returned as keys, in input order, for the scalar path to pick up.
    """
    from repro.flow.batch import plan_batches

    cells = [cell for _key, cell in items]
    groups, rest = plan_batches(cells)
    leftover = list(rest)
    for group in groups:
        if not pays(len(group)):
            leftover.extend(group)
            continue
        for lo in range(0, len(group), _MAX_BATCH_CELLS):
            chunk = group[lo:lo + _MAX_BATCH_CELLS]
            delivered = 0
            for i, (payload, wall) in zip(
                chunk, _timed_payloads([cells[i] for i in chunk], stats)
            ):
                delivered += 1
                key, cell = items[i]
                verdict = {
                    "ok": True,
                    "summary": payload,
                    "wall_seconds": wall,
                }
                finish(key, _outcome_from_verdict(cell, key, verdict, store))
            stats.batched += delivered
            stats.batch_fallbacks += len(chunk) - delivered
            leftover.extend(chunk[delivered:])
    return [items[i][0] for i in sorted(leftover)]


def _timed_payloads(
    cells: Sequence[Cell], stats: RunStats
) -> Iterator[Tuple[Dict[str, Any], float]]:
    """One array batch's payloads, each with its ``wall_seconds``: an
    equal share of the time to the first payload (the array program
    runs on the way to it) plus the payload's own build time.  A batch
    that raises ends here, early: what it had not delivered is the
    caller's to re-run, and the first such failure is kept in
    ``stats.batch_fallback_error``."""
    from repro.flow.batch import iter_batch

    share: Optional[float] = None
    mark = time.perf_counter()
    try:
        for payload in iter_batch(cells):
            built = time.perf_counter() - mark
            if share is None:
                share, built = built / len(cells), 0.0
            yield payload, share + built
            mark = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 — scalar path retries
        if stats.batch_fallback_error is None:
            stats.batch_fallback_error = f"{type(exc).__name__}: {exc}"


def _outcome_from_verdict(
    cell: Cell,
    key: str,
    verdict: Dict[str, Any],
    store: Optional[ResultCache],
) -> CellOutcome:
    wall = verdict.get("wall_seconds", 0.0)
    if verdict["ok"]:
        summary = verdict["summary"]
        if store is not None:
            store.put(key, cell.resolved(), summary, wall)
        return CellOutcome(
            cell=cell,
            key=key,
            summary=CellSummary(summary),
            cached=False,
            wall_seconds=wall,
        )
    return CellOutcome(
        cell=cell, key=key, error=verdict["error"], wall_seconds=wall
    )


def _worker_main(conn: Connection, store: Optional[ResultCache]) -> None:
    """Worker process: chunks in, one verdict out the moment a cell ends.

    A good result is stored by this worker before its verdict is sent
    (``ResultCache.put`` is atomic and safe for concurrent writers), so
    the parent has verdicts to collect, not files to write.  ``None``
    ends the loop, as does a parent that is gone.
    """
    try:
        while (chunk := conn.recv()) is not None:
            conn.send(None)  # up and holding it: the first cell begins
            for key, cell in chunk:
                verdict = _run_guarded(cell)
                if verdict["ok"] and store is not None:
                    store.put(
                        key, cell.resolved(), verdict["summary"],
                        verdict["wall_seconds"],
                    )
                conn.send(verdict)
    except (EOFError, KeyboardInterrupt):
        pass  # the parent went away or was interrupted: so are we
    finally:
        conn.close()


class _Worker:
    """A worker process as its supervisor sees it: the pipe to it, the
    chunk it holds (``chunk[0]`` is the cell it is on) and since when."""

    def __init__(self, store: Optional[ResultCache]) -> None:
        # The platform's default start method, as ``concurrent.futures``
        # uses: ``spawn`` would cost every worker 0.2 s of imports here.
        context = multiprocessing.get_context()
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child, store), daemon=True
        )
        self.process.start()
        # Closed here, and before the next fork so that no sibling
        # inherits it: a dead worker then reads as end-of-file.
        child.close()
        self.chunk: List[Tuple[str, Cell]] = []
        self.since = 0.0

    def give(self, chunk: List[Tuple[str, Cell]]) -> None:
        """Send an idle worker (blocked in ``recv``) its next chunk."""
        self.chunk = chunk
        self.since = time.perf_counter()
        self.conn.send(chunk)

    def stop(self) -> Optional[int]:
        """End the process — told to if idle, killed if it is on a cell
        — and return its exit code."""
        try:
            if self.chunk:
                self.process.kill()
            else:
                self.conn.send(None)
        except OSError:
            pass  # it is gone already
        self.conn.close()
        self.process.join(5.0)  # either way it exits at once
        return self.process.exitcode


def _run_workers(
    items: Sequence[Tuple[str, Cell]],
    jobs: int,
    store: Optional[ResultCache],
    finish: Callable[[str, "CellOutcome"], None],
    timeout: Optional[float],
    retries: int,
    stats: RunStats,
) -> None:
    """Run pending cells on ``jobs`` supervised worker processes.

    Each worker sits on its own duplex pipe, holds one chunk at a time
    and answers with one verdict per cell, so the parent — blocked in
    ``wait`` until the next verdict or the nearest deadline — always
    knows which cell every worker is on and since when.  A chunk carries
    as many cells as fill ``_TASK_SECONDS`` at the mean cell time so
    far, never more than an even share of the queue: long cells and
    short queues go one at a time, cheap cells by the dozen, and chunks
    shrink as the queue drains.  The parent only sends to a worker
    blocked in ``recv``, so the two directions of a pipe cannot wait on
    each other however large a payload is.

    A cell is lost in one of two ways, and either names it exactly.
    Still running ``timeout`` seconds after the parent heard that the
    one before it ended, or that the worker is up and has the chunk (at
    least its budget, never less), its worker is killed, whatever the
    cell is doing: ``CellTimeout``.  A worker that dies by itself took
    the cell it was on: ``WorkerDied``.  The rest of that chunk goes
    back to the front of the queue, a fresh worker takes the place, no
    other cell is repeated, and the lost cell is re-run up to
    ``retries`` times before it is finished as a quarantined error.  A
    cell that raises comes back as a verdict like any other.
    """
    queue = list(items)
    jobs = min(jobs, len(queue))
    workers: List[_Worker] = []
    attempts: Dict[str, int] = {}
    timed_cells = 0
    timed_seconds = 0.0

    def next_chunk() -> List[Tuple[str, Cell]]:
        size = 1
        if timed_seconds > 0.0:
            size = min(
                int(_TASK_SECONDS * timed_cells / timed_seconds),
                len(queue) // jobs,
            )
        chunk = queue[:max(size, 1)]
        del queue[:len(chunk)]
        return chunk

    def lose(worker: _Worker, kind: str) -> None:
        """``worker`` is gone, or has to go, and takes its cell along."""
        wall = time.perf_counter() - worker.since
        workers.remove(worker)
        code = worker.stop()
        (key, cell), rest = worker.chunk[0], worker.chunk[1:]
        queue[:0] = rest
        if kind == "CellTimeout":
            stats.note_timeout(key)
        if attempts.get(key, 0) < retries:
            attempts[key] = attempts.get(key, 0) + 1
            stats.retried += 1
            stats.executed_wall_seconds += wall
            queue.append((key, cell))
            return
        message = f"cell exceeded {timeout}s wall-clock budget"
        if kind == "WorkerDied":
            message = f"worker died on this cell (exit code {code})"
        error = {"type": kind, "message": message, "traceback": message}
        finish(key, CellOutcome(cell, key, error=error, wall_seconds=wall))

    try:
        while queue or workers:
            while queue and len(workers) < jobs:
                workers.append(_Worker(store))
                workers[-1].give(next_chunk())
            patience = None
            if timeout is not None:
                nearest = min(worker.since for worker in workers) + timeout
                patience = max(nearest - time.perf_counter(), 0.0)
            ready = wait([worker.conn for worker in workers], patience)
            now = time.perf_counter()
            for worker in list(workers):
                if worker.conn not in ready:
                    # Judged by the clock as ``wait`` returned: time
                    # spent below on other workers' results is not its.
                    if timeout is not None and now - worker.since >= timeout:
                        lose(worker, "CellTimeout")
                    continue
                try:
                    verdict = worker.conn.recv()
                except (EOFError, OSError):
                    lose(worker, "WorkerDied")
                    continue
                # Its next cell began no later than we learn of it.
                worker.since = time.perf_counter()
                if verdict is None:
                    continue  # start-up is not the first cell's time
                key, cell = worker.chunk.pop(0)
                timed_cells += 1
                timed_seconds += verdict["wall_seconds"]
                if not worker.chunk:
                    # Its next chunk first, so it works while we file.
                    if queue:
                        worker.give(next_chunk())
                    else:
                        workers.remove(worker)
                        worker.stop()
                # The worker already stored it: no store here.
                finish(key, _outcome_from_verdict(cell, key, verdict, None))
    finally:
        for worker in workers:
            worker.stop()


# ---------------------------------------------------------------------------
# Progress output


def _format_eta(seconds: float) -> str:
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.0f}s"


def _progress_line(
    done: int, total: int, outcome: CellOutcome, elapsed: float
) -> None:
    cell = outcome.cell
    if outcome.ok:
        status = "cached" if outcome.cached else f"{outcome.wall_seconds:.1f}s"
    else:
        error = outcome.error or {}
        status = f"ERROR {error.get('type', '?')}: {error.get('message', '')}"
    # Fleet-scale observability: throughput so far and the projected
    # time to drain the remaining cells at that rate.
    pace = ""
    if elapsed > 0.0:
        rate = done / elapsed
        pace = f" | {rate:.1f} cells/s"
        if done < total and rate > 0.0:
            pace += f", ETA {_format_eta((total - done) / rate)}"
    print(
        f"[{done}/{total}] {cell.effective_label} "
        f"seed={cell.seed} dur={cell.duration:g}s ... {status}{pace}",
        file=sys.stderr,
        flush=True,
    )


def stats_line(stats: RunStats) -> str:
    """The run statistics as the one sentence every command prints."""
    extra = ""
    if stats.retried or stats.timeouts:
        extra = f", {stats.retried} retried, {stats.timeouts} timeouts"
    if stats.batched:
        extra += f", {stats.batched} on the array program"
    if stats.batch_fallbacks:
        extra += f", {stats.batch_fallbacks} fell back from a failed batch"
        extra += f" ({stats.batch_fallback_error})"
    rate = ""
    if stats.wall_seconds > 0.0:
        rate = f" ({stats.cells_unique / stats.wall_seconds:.1f} cells/s)"
    return (
        f"{stats.cells_total} cells ({stats.cells_unique} unique), "
        f"{stats.executed} executed, {stats.cache_hits} cached "
        f"({100 * stats.cache_hit_rate:.0f}%), {stats.errors} errors{extra}, "
        f"{stats.wall_seconds:.1f}s wall on {stats.jobs} jobs{rate} "
        f"({stats.executed_wall_seconds:.1f}s serial-equivalent)"
    )


def _stats_line(stats: RunStats) -> None:
    print(f"sweep: {stats_line(stats)}", file=sys.stderr, flush=True)
    report_quarantined(stats, sys.stderr)


def report_quarantined(stats: RunStats, stream: TextIO) -> None:
    """Name the cells that failed every attempt, if any did."""
    if stats.quarantined:
        print(
            f"quarantined {len(stats.quarantined)} poison cell(s): "
            + ", ".join(stats.quarantined),
            file=stream,
            flush=True,
        )
