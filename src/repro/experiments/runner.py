"""Process-pool experiment runner with result caching.

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
  timeout (SIGALRM, POSIX only), one retry for failed or timed-out
  cells, and quarantine — a cell that fails every attempt is reported
  in the run summary, never raised mid-sweep;
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

import os
import signal
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
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

# How many submitted-but-unfinished futures to keep per worker; bounds
# the pickled backlog on huge sweeps without ever starving the pool.
_MAX_PENDING_PER_WORKER = 4

# Cell execution time one pool task should carry: two orders over what
# a task costs to pickle, dispatch and collect (~0.5 ms), and short
# enough that progress lines keep coming.
_TASK_SECONDS = 0.05

# Largest single array-batch handed to the flow batch engine: bounds
# the (T, B) state arrays of one group (a 60 s call at 1024 cells is
# about 130 MiB of live state: 170 MiB peak RSS, 40 of them the bare
# interpreter with numpy and repro imported) without limiting sweep
# size.
_MAX_BATCH_CELLS = 1024


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
        """Normalized QoE per §6 (mirrors ``QoeSummary.normalized``)."""
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
    # Cells whose array batch raised and that the scalar path re-ran:
    # right answers, several times slower, otherwise invisible.
    batch_fallbacks: int = 0
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
            "batch_fallbacks": self.batch_fallbacks,
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

    Everything stochastic is derived from ``cell.seed`` inside this
    function (paths, fault plans, the simulator's streams), so the
    result depends only on the cell — the property the whole runner
    rests on.  Returns the summary payload dict.

    ``profiler`` optionally attaches a
    :class:`repro.simulation.SimProfiler` to the call (used by
    ``repro profile``, which runs cells serially in-process).
    """
    from repro.analysis.export import result_to_dict
    from repro.core.api import build_call_config, run_call
    from repro.experiments.cells import Fidelity, ScenarioPaths
    from repro.faults.scenarios import build_chaos_plan

    path_configs = cell.paths.build(cell.duration, cell.seed)
    fault_plan = None
    label = cell.label
    if cell.chaos is not None:
        fault_plan = build_chaos_plan(
            cell.chaos, cell.duration, seed=cell.seed,
            num_paths=len(path_configs),
        )
        if label is None:
            label = f"{cell.system.value}+{cell.chaos}"
    config = build_call_config(
        cell.system,
        duration=cell.duration,
        num_streams=cell.num_streams,
        seed=cell.seed,
        single_path_id=cell.single_path_id,
        label=label,
        **cell.override_kwargs(),
    )
    # Churn BIRTH events need a trace scenario to synthesize the new
    # path's capacity/loss; scenario cells carry one naturally.
    churn_scenario = (
        cell.paths.scenario if isinstance(cell.paths, ScenarioPaths) else None
    )
    if cell.fidelity is Fidelity.FLOW:
        # Frame-interval backend; the profiler hooks the packet-level
        # event loop, so profiling is a packet-fidelity-only feature.
        from repro.flow.session import run_flow_call

        result = run_flow_call(
            config,
            path_configs,
            fault_plan=fault_plan,
            churn_scenario=churn_scenario,
        )
    else:
        result = run_call(
            config,
            path_configs,
            fault_plan=fault_plan,
            profiler=profiler,
            churn_scenario=churn_scenario,
        )
    return result_to_dict(result)


class _CellTimeoutError(Exception):
    """A cell blew through its wall-clock budget (SIGALRM fired)."""


def _execute_isolated(
    cell: Cell, timeout: Optional[float] = None
) -> Dict[str, Any]:
    """Worker wrapper: convert any exception to a structured error.

    Exceptions are flattened to plain data so the parent never has to
    unpickle arbitrary exception types from a worker, and a poisoned
    cell cannot break the pool.  ``timeout`` bounds the cell's real
    wall-clock time via SIGALRM where the platform has it (POSIX main
    thread); elsewhere the cell runs unguarded rather than failing.
    """
    start = time.perf_counter()
    armed = False
    previous: Any = None
    fired = {"flag": False}
    message = f"cell exceeded {timeout}s wall-clock budget"
    if timeout is not None and timeout > 0 and hasattr(signal, "SIGALRM"):

        def _on_alarm(signum: int, frame: Any) -> None:
            fired["flag"] = True
            raise _CellTimeoutError(message)

        try:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
        except ValueError:
            pass  # not the main thread: no alarm available here
        else:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            armed = True
    try:
        verdict = _run_guarded(cell, start)
    except _CellTimeoutError as exc:
        # The alarm can fire in the sliver between _run_guarded's
        # handlers and the disarm below; keep it from escaping.
        verdict = _timeout_verdict(str(exc), start)
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    if fired["flag"] and verdict.get("ok"):
        # The interpreter discards a signal-raised exception when it
        # lands in a frame that cannot propagate it (e.g. a GC
        # callback), letting the cell run to completion anyway.  The
        # budget still governs the verdict: the alarm fired, so the
        # cell is over budget regardless of how it ended.
        verdict = _timeout_verdict(message, start)
    return verdict


def _timeout_verdict(message: str, start: float) -> Dict[str, Any]:
    return {
        "ok": False,
        "timed_out": True,
        "error": {
            "type": "CellTimeout",
            "message": message,
            "traceback": message,
        },
        "wall_seconds": time.perf_counter() - start,
    }


def _run_guarded(cell: Cell, start: float) -> Dict[str, Any]:
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
    except _CellTimeoutError as exc:
        return {
            "ok": False,
            "timed_out": True,
            "error": {
                "type": "CellTimeout",
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
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
        return max(int(env), 1)
    return os.cpu_count() or 1


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
    mode: str = "scalar",
) -> RunStats:
    """Execute ``cells``, handing each result to ``sink`` as it lands.

    The one driver behind :func:`run_cells` (which documents the other
    arguments) and :func:`repro.experiments.fleet.run_fleet`: dedup,
    cache pass, array batches, then the serial loop or the pool.
    ``sink(outcome, positions)`` is called exactly once per unique
    cell, in completion order (cache hits first, then batched cells
    lane by lane, then the rest as they finish), with the indices in
    ``cells`` that the outcome answers.  The driver holds no outcome
    once ``sink`` returns, so what a sweep keeps in memory is its
    consumer's choice.
    """
    if mode not in ("scalar", "batch"):
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
            error = outcome.error or {}
            if error.get("type") == "CellTimeout":
                stats.note_timeout(key)
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

    if mode == "batch" and pending:
        pending = _run_batched(
            [(key, unique[key]) for key in pending], store, finish, stats
        )

    if jobs <= 1 or len(pending) <= 1:
        for key in pending:
            finish(
                key,
                _run_one(
                    unique[key], key, store, cell_timeout, retries, stats
                ),
            )
    else:
        _run_pool(
            [(key, unique[key]) for key in pending],
            jobs,
            store,
            finish,
            cell_timeout,
            retries,
            stats,
        )

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
    mode: str = "scalar",
) -> RunReport:
    """Execute ``cells``, fanning out across processes and the cache.

    ``jobs`` — worker processes; ``None`` means ``os.cpu_count()``
    (override with ``REPRO_JOBS``); ``1`` runs serially in-process
    (identical results, no pool overhead).  ``cache`` — a
    :class:`ResultCache`, a directory path, or ``None`` to disable
    caching.  ``progress`` — emit one line per finished cell to stderr.
    ``cell_timeout`` — per-cell wall-clock budget in seconds (SIGALRM
    on POSIX; no-op where unavailable).  ``retries`` — extra attempts
    for a failed or timed-out cell before it is quarantined: reported
    as a structured error in the run summary, never raised mid-sweep.
    ``mode`` — ``"scalar"`` runs every cell through the per-process
    path above; ``"batch"`` first groups compatible flow-fidelity
    cells (same resolved cell up to seed/label) into array batches for
    :func:`repro.flow.batch.iter_batch`, byte-identical to scalar
    execution, and falls back per cell for whatever cannot batch.

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
) -> List[str]:
    """Execute what the array backend can take; return the leftovers.

    Compatible flow cells are grouped by structural identity and
    stepped together in :func:`repro.flow.batch.iter_batch` (large
    groups are chunked so one group's ``(T, B)`` state stays bounded),
    and each payload is finished — stored, handed on, dropped — before
    the next one is built.  Results are byte-identical to the scalar
    path: both backends build payloads in the normal form
    ``analysis.export`` defines (pinned by tests/test_flow_batch.py),
    so cache entries and outcomes are indistinguishable from
    per-process execution without any normalization pass.  Cells the
    planner rejects, plus the cells a failing chunk had not delivered
    yet (counted in ``stats.batch_fallbacks``), are returned as keys
    for the scalar path to pick up.
    """
    from repro.flow.batch import plan_batches

    cells = [cell for _key, cell in items]
    groups, rest = plan_batches(cells)
    leftover = [items[i][0] for i in rest]
    for group in groups:
        for lo in range(0, len(group), _MAX_BATCH_CELLS):
            chunk = group[lo:lo + _MAX_BATCH_CELLS]
            delivered = 0
            for i, (payload, wall) in zip(
                chunk, _timed_payloads([cells[i] for i in chunk])
            ):
                delivered += 1
                key, cell = items[i]
                verdict = {
                    "ok": True,
                    "summary": payload,
                    "wall_seconds": wall,
                }
                finish(key, _outcome_from_verdict(cell, key, verdict, store))
            stats.batch_fallbacks += len(chunk) - delivered
            leftover.extend(items[i][0] for i in chunk[delivered:])
    return leftover


def _timed_payloads(
    cells: Sequence[Cell],
) -> Iterator[Tuple[Dict[str, Any], float]]:
    """One array batch's payloads, each with its ``wall_seconds``: an
    equal share of the time to the first payload (the array program
    runs on the way to it) plus the payload's own build time.  A batch
    that raises ends here, early: what it had not delivered is the
    caller's to re-run."""
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
    except Exception:  # noqa: BLE001 — scalar path retries
        return


def _run_one(
    cell: Cell,
    key: str,
    store: Optional[ResultCache],
    timeout: Optional[float] = None,
    retries: int = 0,
    stats: Optional[RunStats] = None,
) -> CellOutcome:
    """Execute one cell in-process (the serial path), with retries."""
    verdict = _execute_isolated(cell, timeout)
    attempt = 0
    while not verdict["ok"] and attempt < retries:
        attempt += 1
        if stats is not None:
            _note_retry(stats, verdict, key)
        verdict = _execute_isolated(cell, timeout)
    return _outcome_from_verdict(cell, key, verdict, store)


def _note_retry(stats: RunStats, verdict: Dict[str, Any], key: str) -> None:
    """Account for one discarded (retried) attempt."""
    stats.retried += 1
    stats.executed_wall_seconds += verdict.get("wall_seconds", 0.0)
    if verdict.get("timed_out"):
        stats.note_timeout(key)


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


def _run_chunk(
    chunk: Sequence[Tuple[str, Cell]],
    timeout: Optional[float],
    store: Optional[ResultCache],
) -> List[Dict[str, Any]]:
    """Pool task: run ``chunk`` cell by cell, one verdict per cell.

    Every cell keeps its own :func:`_execute_isolated` guard (timeout,
    structured error), and a good result is stored by this worker —
    ``ResultCache.put`` is atomic and safe for concurrent writers — so
    the parent is left with verdicts to collect, not files to write.
    """
    verdicts = []
    for key, cell in chunk:
        verdict = _execute_isolated(cell, timeout)
        if verdict["ok"] and store is not None:
            store.put(
                key, cell.resolved(), verdict["summary"],
                verdict["wall_seconds"],
            )
        verdicts.append(verdict)
    return verdicts


def _run_pool(
    items: Sequence[Tuple[str, Cell]],
    jobs: int,
    store: Optional[ResultCache],
    finish: Callable[[str, "CellOutcome"], None],
    timeout: Optional[float] = None,
    retries: int = 0,
    stats: Optional[RunStats] = None,
) -> None:
    """Fan pending cells out over a process pool, a chunk per task.

    A task carries as many cells as fill ``_TASK_SECONDS`` at the mean
    cell time measured so far, capped so that the queue still splits
    into a full submission window: long cells and short queues go one
    per task, cheap cells by the dozen, and chunks shrink as the queue
    drains so the workers finish together.  Submission is throttled (a
    bounded window per worker) so a many-thousand-cell sweep does not
    pickle its entire job list up front, and verdicts are consumed as
    tasks complete so progress lines happen promptly.  Failed and
    timed-out cells are re-queued up to ``retries`` times before they
    are finished as quarantined errors.

    A worker that dies outright (e.g. OOM-killed) takes every task in
    flight with it, and nothing says which cell did it.  Those cells
    are then re-run in a fresh pool one task at a time, where a second
    death names its cell: only that one is retried (up to ``retries``)
    and quarantined, every other cell is delivered, and chunked
    dispatch resumes for the rest of the queue.
    """
    queue = list(items)
    suspects: List[Tuple[str, Cell]] = []
    jobs = min(jobs, len(queue))
    window = jobs * _MAX_PENDING_PER_WORKER
    attempts: Dict[str, int] = {}
    timed_cells = 0
    timed_seconds = 0.0

    def retry_or_none(key: str, verdict: Dict[str, Any]) -> bool:
        """True if the cell may have another attempt."""
        if attempts.get(key, 0) >= retries:
            return False
        attempts[key] = attempts.get(key, 0) + 1
        if stats is not None:
            _note_retry(stats, verdict, key)
        return True

    def next_chunk() -> List[Tuple[str, Cell]]:
        size = 1
        if timed_seconds > 0.0:
            size = min(
                int(_TASK_SECONDS * timed_cells / timed_seconds),
                len(queue) // window,
            )
        chunk = queue[:max(size, 1)]
        del queue[:len(chunk)]
        return chunk

    while queue or suspects:
        lost: List[Tuple[str, Cell]] = []
        failure: Optional[BaseException] = None
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures: Dict[Any, List[Tuple[str, Cell]]] = {}
            while futures or (failure is None and (queue or suspects)):
                if failure is None:
                    if suspects:
                        # Alone in flight (suspects only appear between
                        # pools, and the wait below outlasts a lone
                        # task): a death now is this cell's own.
                        chunks = [[suspects.pop(0)]]
                    else:
                        chunks = []
                        while queue and len(futures) + len(chunks) < window:
                            chunks.append(next_chunk())
                    for chunk in chunks:
                        futures[
                            pool.submit(_run_chunk, chunk, timeout, store)
                        ] = chunk
                finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    chunk = futures.pop(future)
                    try:
                        verdicts = future.result()
                    except Exception as exc:  # BrokenProcessPool et al.
                        failure = exc
                        lost.extend(chunk)
                        continue
                    for (key, cell), verdict in zip(chunk, verdicts):
                        timed_cells += 1
                        timed_seconds += verdict["wall_seconds"]
                        if not verdict["ok"] and retry_or_none(key, verdict):
                            queue.append((key, cell))
                            continue
                        # The worker already stored it: no store here.
                        finish(
                            key, _outcome_from_verdict(cell, key, verdict, None)
                        )
        if failure is None:
            continue
        if len(lost) > 1:
            suspects.extend(lost)
            continue
        # One cell in flight when the pool broke: that is the cell.
        key, cell = lost[0]
        if retry_or_none(key, {"wall_seconds": 0.0}):
            suspects.append((key, cell))
            continue
        finish(
            key,
            CellOutcome(
                cell=cell,
                key=key,
                error={
                    "type": type(failure).__name__,
                    "message": str(failure),
                    "traceback": "".join(
                        traceback.format_exception(
                            type(failure), failure, failure.__traceback__
                        )
                    ),
                },
            ),
        )


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
    if stats.batch_fallbacks:
        extra += f", {stats.batch_fallbacks} fell back from a failed batch"
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
