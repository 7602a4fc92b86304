"""Vectorized batch execution of default-config Converge flow cells.

The scalar flow backend (:mod:`repro.flow.session`) made one call two
orders of magnitude faster than the packet core, which moved the
bottleneck for Monte Carlo sweeps to the Python interpreter itself:
every cell replays the same ~1800-step control loop, one step at a
time, in its own process.  This module steps *B* cells of one group
simultaneously as one numpy array program — capacity trajectories as
per-step segment positions into each lane's trace, every per-path
quantity (queue backlog, loss EWMAs, GCC rate state, FEC carry) as
struct-of-arrays ``(B,)`` slices, and all stochastic frame fates as
batched inverse-transform draws.

**Scope.**  The array program takes one cell shape, decided once in
:func:`batchable`: a flow-fidelity, single-stream Converge call with
the default configuration and no chaos plan, on scenario or constant
paths — the shape of the wide seed ranges it pays for.  Every other
cell runs on the scalar loop, where the runner sends it anyway.

**Equivalence contract (DESIGN.md §11).**  Batched execution is not an
approximation: for every cell it accepts, the produced result payload
equals the scalar runner's (``==``, same types, same canonical
JSON bytes) for the same cell.  Four mechanisms make that possible,
the first three by one rule — decide the common case for every lane
with a cheap exact array test and hand only the lanes it cannot decide
to the scalar reference code:

- *Shared RNG streams.*  Each lane owns the very ``random.Random``
  its scalar ``flow-session`` stream would be and reads it in bulk:
  ``randbytes`` is the generator's successive 32-bit outputs, and
  ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over
  consecutive outputs — exact in float64 (:class:`_DrawPool`).
- *Scalar transcendentals.*  numpy's ``log``/``exp``/``power`` kernels
  are not bit-identical to CPython's ``math`` on this floor, so every
  transcendental is a Python call — once for the value the lanes
  share, once more per lane that differs (:func:`_scalar_map`).
  Plain ``+ - * /``, comparisons, min/max and ``sqrt`` are
  IEEE-754-exact in both and stay vectorized.
- *Screened draws.*  A binomial draw is 0 whenever its quantile is at
  most ``1 - n*p`` (Bernoulli's inequality), which three ufuncs decide
  for every lane; the rest replay
  :func:`repro.flow.frames.binomial_from_uniform`, the scalar walk
  itself (:func:`_binomial_walk`).
- *Replayed operation order.*  Expression shapes (association,
  division order, strict-``<`` tie behaviour, EWMA forms) replicate
  the scalar loop :meth:`repro.flow.session.FlowCall.run` term for
  term; the cross-validation suite
  (``tests/test_flow_batch.py``) pins the two backends together on
  every golden scenario.

The payload is not restated: each lane's records fill a
``MetricsCollector`` that goes through the scalar path's own
``summarize`` and ``result_to_dict`` (:meth:`_BatchFlowRun._cell_payload`).
"""

from __future__ import annotations

import dataclasses
import math
import random
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Sequence,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

from repro.analysis.export import result_to_dict
from repro.cc.gcc import _LOSS_PEAK_TAU, _LOSS_SMOOTHING
from repro.core.config import (
    WATCHDOG_DEGRADE_TIMEOUT,
    WATCHDOG_RATE_DECAY_FACTOR,
    WATCHDOG_RATE_DECAY_INTERVAL,
    WATCHDOG_SILENCE_TIMEOUT,
    CallConfig,
    SystemKind,
)
from repro.core.sender import _CAPACITY_PROBE_INTERVAL as _PROBE_INTERVAL
from repro.core.session import SAMPLE_INTERVAL, CallResult
from repro.experiments.cells import (
    Cell,
    ConstantPaths,
    Fidelity,
    ScenarioPaths,
    canonical_json,
)
from repro.fec.converge_controller import (
    _BETA_DECAY_PER_SECOND as _BETA_DECAY,
    _BETA_MAX,
    _MAX_PROTECTED_LOSS,
    _MAX_PROTECTION,
    _MIN_LOSS_FOR_FEC,
    _ROUND_UP_THRESHOLD,
)
from repro.flow.frames import (
    MAX_RTX_ROUNDS,
    _BETA_BUMP,
    binomial_from_uniform,
)
from repro.flow.link import FlowLink
from repro.flow.rate_control import (
    BACKOFF_FACTOR,
    BURST_EXPECTED_LOSSES,
    BURST_LOSS_FLOOR,
    BURST_OVERUSE_PROBABILITY,
    DELIVERED_WINDOW,
    GROWTH_PER_SECOND,
    HOLD_SECONDS,
    LOSS_CUT_THRESHOLD,
    LOSS_PROBE_THRESHOLD,
    LOSS_REPORT_INTERVAL,
    NEAR_CONVERGENCE_WINDOW,
    OVERUSE_QUEUE_DELAY,
    PROBE_JITTER_SPAN,
    PROBE_RUN_BITS,
    RTT_SMOOTHING,
    _MTU_BITS,
)
from repro.flow.session import (
    _BURST_KILL_FACTOR,
    _BURST_KILL_MAX,
    _FRAME_PROBE_MIN_PACKETS,
    _FRAME_PROBE_MIN_RATE,
    _KEYFRAME_DEBT_REPAY,
    _KEYFRAME_RECOVERY_DELAY,
    _MIN_FRAME_BYTES,
    _PROBE_MAX_LOSS,
    _PROBE_MAX_QUEUE_DELAY,
    _PROTECTION_SMOOTHING,
)
from repro.metrics.collector import (
    MetricsCollector,
    PathSendRecord,
    RenderedFrame,
    TimeSeries,
)
from repro.metrics.qoe import summarize
from repro.net.path import _OUTAGE_CAPACITY_BPS
from repro.receiver.session import KEYFRAME_REQUEST_MIN_INTERVAL
from repro.rtp.packets import DEFAULT_MTU_PAYLOAD
from repro.simulation.random import derive_seed
from repro.video.encoder import KEYFRAME_SIZE_MULTIPLIER

F8 = NDArray[np.float64]
I8 = NDArray[np.int64]
B1 = NDArray[np.bool_]

# Uniform draws held per cell: the window :meth:`_DrawPool.reserve`
# keeps topped up to one step's worst case, :func:`_step_draws`.
_POOL_CHUNK = 1024

# Slack of the Bernoulli screen in :func:`_binomial_walk`.
_SCREEN_GUARD = 1e-9

# A path's send counters, ``_PathLanes.rec_<field>``, in record order.
_SEND_FIELDS = [field.name for field in dataclasses.fields(PathSendRecord)]


# ---------------------------------------------------------------------------
# Exact scalar-math helpers


def _scalar_map(fn: Callable[[float], float], values: F8) -> F8:
    """Apply a CPython scalar function element-wise, bit-exactly.

    numpy's transcendental kernels (SIMD polynomial paths) are not
    bit-identical to libm-backed ``math.*`` on this floor, so ``fn``
    runs in Python.  Lanes move in lockstep (FEC decay gaps are one
    step-grid difference for every cell that sent last step), so the
    first lane's result is broadcast and only the lanes whose *bits*
    differ from it are visited — ``-0.0`` and NaN payloads included.
    ``values`` is not empty.
    """
    bits = values.view(np.int64)
    out = np.full(values.shape[0], fn(float(values[0])))
    odd = np.flatnonzero(bits != bits[0])
    if odd.shape[0]:
        out[odd] = [fn(v) for v in values[odd].tolist()]
    return out


class _DrawPool:
    """Per-cell ``random.Random`` uniform streams, consumed in lockstep.

    Row *i* is a window on cell *i*'s scalar ``flow-session`` stream —
    the same ``random.Random(seed)``, read in bulk: the pool holds
    :data:`_POOL_CHUNK` doubles per cell, every :meth:`draw` hands each
    selected lane its next value, so draw *sites* can be processed in
    any batched grouping as long as each cell's local draw order is
    preserved.  :meth:`reserve` at the head of a step tops up the rows
    that could run out within it, so :meth:`draw` never checks; a
    window is a step's draws, not a call's (4 MiB at 512 lanes).
    """

    __slots__ = ("_streams", "_pool", "_cursor", "_all")

    def __init__(self, seeds: Sequence[int]) -> None:
        count = len(seeds)
        self._streams = [random.Random(seed) for seed in seeds]
        self._pool = np.empty((count, _POOL_CHUNK), dtype=np.float64)
        # Every row starts fully read, so the first reserve fills it.
        self._cursor = np.full(count, _POOL_CHUNK, dtype=np.int64)
        self._all = np.arange(count, dtype=np.int64)

    def reserve(self, n: int) -> None:
        """Make sure every row holds at least ``n`` unread doubles.

        A row short of ``n`` moves its unread tail to the front and
        appends its stream's next values behind it.  ``randbytes`` is
        successive generator outputs laid out little-endian, and
        ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over
        consecutive 32-bit outputs ``a, b`` — every step exact in
        float64 (the sum is below ``2**53``).
        """
        width = self._pool.shape[1]
        if n > width:
            raise ValueError(f"a step may draw {n} values, the window holds {width}")
        cursor = self._cursor
        for i in np.flatnonzero(cursor > width - n).tolist():
            read = int(cursor[i])
            row = self._pool[i]
            row[: width - read] = row[read:]
            words = np.frombuffer(self._streams[i].randbytes(8 * read), dtype="<u4")
            fresh = row[width - read :]
            np.multiply(words[0::2] >> 5, 2.0**26, out=fresh)
            fresh += words[1::2] >> 6
            fresh *= 2.0**-53
            cursor[i] = 0

    def draw(self, cell_indices: I8) -> F8:
        """Next uniform double for each listed cell (indices unique)."""
        cursor = self._cursor
        values = self._pool[cell_indices, cursor[cell_indices]]
        cursor[cell_indices] += 1
        return values

    def draw_all(self) -> F8:
        """Next uniform double for every cell."""
        return self.draw(self._all)


def _binomial_walk(n: I8, p: F8, u: F8) -> I8:
    """Batched inverse-transform Binomial(n, p), ``n >= 1``, ``0 < p < 1``.

    The scalar walk (:func:`repro.flow.frames.binomial_from_uniform`)
    returns 0 iff ``q**n >= u``, and Bernoulli's inequality gives
    ``q**n >= 1 - n*p``: so ``u <= 1 - n*p - 1e-9`` proves ``k = 0``
    with three ufuncs and no ``pow``.  The guard is the float error
    budget of both sides (DESIGN.md §11): under ``(n + 4) * 2**-53``,
    so good for ``n`` up to ``9e6`` packets in one frame.  Only the
    undecided lanes, about ``n*p`` of them, replay the walk itself.
    """
    k = np.zeros(n.shape[0], dtype=np.int64)
    open_lanes = np.flatnonzero(u > (1.0 - _SCREEN_GUARD) - n * p)
    if open_lanes.shape[0]:
        k[open_lanes] = list(
            map(
                binomial_from_uniform,
                u[open_lanes].tolist(),
                n[open_lanes].tolist(),
                p[open_lanes].tolist(),
            )
        )
    return k


def _step_draws(paths: int) -> int:
    """The most uniform draws one lane makes in one step: the encode
    jitter, then per path the burst, loss, FEC, retransmission (one a
    round), kill and overuse draws in the send, and the kill-share
    draw in :meth:`_BatchFlowRun._finish`."""
    return 1 + paths * (6 + MAX_RTX_ROUNDS)


def _vector_step_caps(link: FlowLink, query: F8) -> Tuple[I8, F8]:
    """:meth:`FlowLink.precompute`, vectorized over the step grid and
    factored: the trace segment of each step, and each segment's
    capacity with the outage gate applied.

    ``query`` holds the step times (``np.arange(steps) * dt``, shared
    across the batch).  Pure selection: ``searchsorted`` replays the
    trace's ``bisect_right`` segment lookup and the values are the
    trace's own floats, so ``values[index]`` is byte-identical to the
    scalar tabulation.
    """
    trace = link._trace
    times = np.asarray(trace._times, dtype=np.float64)
    values = np.asarray(trace._values, dtype=np.float64)
    if trace.loop and trace.duration > 0:
        query = np.mod(query, trace.duration)
    index = np.searchsorted(times, query, side="right") - 1
    index[index < 0] = 0
    return index, np.where(values < _OUTAGE_CAPACITY_BPS, 0.0, values)


class _CapacityTable:
    """One path's capacity at every step, for every lane.

    A scenario trace changes value twice a second against 30 steps a
    second, so the table keeps each lane's segment values, ``(S, B)``,
    and per step the position of the value each lane reads, ``(T, B)``
    int32: half the bytes of a dense float table, one gather a step.
    """

    __slots__ = ("values", "position")

    def __init__(self, links: Sequence[FlowLink], query: F8) -> None:
        batch = len(links)
        segments = max(len(link._trace._times) for link in links)
        self.values = np.zeros((segments, batch), dtype=np.float64)
        self.position = np.empty((query.shape[0], batch), dtype=np.int32)
        for i, link in enumerate(links):
            index, values = _vector_step_caps(link, query)
            self.values[: values.shape[0], i] = values
            # Row-major position of (segment, lane) in ``values``.
            self.position[:, i] = index * batch + i

    def at(self, step: int) -> F8:
        """Every lane's capacity at ``step``."""
        return self.values.take(self.position[step])


# ---------------------------------------------------------------------------
# Batch planning


def batchable(cell: Cell) -> bool:
    """Can the array program take this cell?  The one place its scope
    is decided: a flow-fidelity, single-stream Converge call with no
    chaos plan and no ``overrides``, on scenario or constant paths.
    Those paths carry no scheduled loss and build the same per-path
    parameters for every seed, so one :func:`group_key` is all a group
    shares."""
    return (
        cell.fidelity is Fidelity.FLOW
        and cell.chaos is None
        and cell.num_streams == 1
        and cell.system is SystemKind.CONVERGE
        and not cell.overrides
        and isinstance(cell.paths, (ScenarioPaths, ConstantPaths))
    )


def group_key(cell: Cell) -> str:
    """Structural identity: the resolved cell minus seed and label."""
    # ``resolved()`` is memoized per Cell instance; copy before masking
    # the per-cell fields so the memo stays intact.
    resolved = dict(cell.resolved())
    resolved["seed"] = 0
    resolved["label"] = None
    return canonical_json(resolved)


def plan_batches(
    cells: Sequence[Cell],
) -> Tuple[List[List[int]], List[int]]:
    """Partition cell indices into batchable groups and a scalar rest.

    Groups preserve first-seen order; indices inside a group keep input
    order, so batched execution remains deterministic run to run.
    """
    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    rest: List[int] = []
    for index, cell in enumerate(cells):
        if not batchable(cell):
            rest.append(index)
            continue
        key = group_key(cell)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [index]
            order.append(key)
        else:
            bucket.append(index)
    return [groups[key] for key in order], rest


# ---------------------------------------------------------------------------
# Per-path constant bundles


class _PathConsts:
    """Loss/queue/delay parameters of one path, shared by the group."""

    __slots__ = (
        "path_id",
        "base_loss",
        "burst_loss",
        "burst_packets",
        "log_stay_good",
        "prop",
        "prop2",
        "queue_cap",
        "srtt0",
        "pburst_table",
        "loss_cap",
    )

    def __init__(self, link: FlowLink) -> None:
        self.path_id = link.path_id
        self.base_loss = link._base_loss
        self.burst_loss = link._burst_loss
        self.burst_packets = link._burst_packets
        self.log_stay_good = link._log_stay_good
        self.prop = link.propagation_delay
        self.prop2 = 2.0 * (link.propagation_delay + 0.0)
        self.queue_cap = float(link._queue_capacity)
        self.srtt0 = max(2.0 * link.propagation_delay, 1e-3)
        # P(burst entry | n packets), filled lazily per distinct n.
        self.pburst_table = np.empty(0, dtype=np.float64)
        # No frame_loss exceeds this outside an outage: the burst blend
        # is monotone in its fraction (rounding is), so it peaks at 1.
        self.loss_cap = max(
            self.base_loss,
            self.base_loss + (self.burst_loss - self.base_loss),
        )

    def pburst(self, n_pkts: I8) -> F8:
        table = self.pburst_table
        top = int(n_pkts.max())
        if top >= table.shape[0]:
            values = table.tolist()
            for n in range(len(values), top + 1):
                values.append(-math.expm1(self.log_stay_good * n))
            table = np.array(values, dtype=np.float64)
            self.pburst_table = table
        return table[n_pkts]


class _PathLanes:
    """Struct-of-arrays state for one path across all B cells."""

    __slots__ = (
        "caps",
        "backlog",
        "loss_ewma",
        "loss_peak",
        "silence",
        "degraded",
        "disabled",
        "cap",
        "tgt",
        "weight",
        "member",
        "rank",
        "step_bytes",
        "step_packets",
        "out_delivered",
        "out_completion",
        "out_killed",
        "rate",
        "loss_rate",
        "srtt",
        "offered_avg",
        "delivered",
        "hold_until",
        "cap_est",
        "has_est",
        "loss_accum",
        "beta",
        "carry",
        "last_update",
        "rec_media_packets",
        "rec_media_bytes",
        "rec_fec_packets",
        "rec_fec_bytes",
        "rec_rtx_packets",
        "rec_rtx_bytes",
        "tgt_samples",
    )

    def __init__(
        self, caps: _CapacityTable, samples: int, consts: _PathConsts,
        initial_rate: float,
    ) -> None:
        self.caps = caps
        batch_size = caps.values.shape[1]
        shape = (batch_size,)
        self.backlog = np.zeros(shape, dtype=np.float64)
        self.loss_ewma = np.zeros(shape, dtype=np.float64)
        self.loss_peak = np.zeros(shape, dtype=np.float64)
        self.silence = np.zeros(shape, dtype=np.float64)
        self.degraded = np.zeros(shape, dtype=np.bool_)
        self.disabled = np.zeros(shape, dtype=np.bool_)
        self.cap = np.zeros(shape, dtype=np.float64)
        self.tgt = np.zeros(shape, dtype=np.float64)
        self.weight = np.zeros(shape, dtype=np.float64)
        self.member = np.zeros(shape, dtype=np.bool_)
        self.rank = np.zeros(shape, dtype=np.int64)
        self.step_bytes = np.zeros(shape, dtype=np.int64)
        self.step_packets = np.zeros(shape, dtype=np.int64)
        self.out_delivered = np.zeros(shape, dtype=np.bool_)
        self.out_completion = np.zeros(shape, dtype=np.float64)
        self.out_killed = np.zeros(shape, dtype=np.bool_)
        self.rate = np.full(shape, initial_rate, dtype=np.float64)
        self.loss_rate = np.full(shape, initial_rate, dtype=np.float64)
        self.srtt = np.full(shape, consts.srtt0, dtype=np.float64)
        self.offered_avg = np.zeros(shape, dtype=np.float64)
        self.delivered = np.zeros(shape, dtype=np.float64)
        self.hold_until = np.zeros(shape, dtype=np.float64)
        self.cap_est = np.zeros(shape, dtype=np.float64)
        self.has_est = np.zeros(shape, dtype=np.bool_)
        self.loss_accum = np.zeros(shape, dtype=np.float64)
        self.beta = np.ones(shape, dtype=np.float64)
        self.carry = np.zeros(shape, dtype=np.float64)
        self.last_update = np.zeros(shape, dtype=np.float64)
        self.rec_media_packets = np.zeros(shape, dtype=np.int64)
        self.rec_media_bytes = np.zeros(shape, dtype=np.int64)
        self.rec_fec_packets = np.zeros(shape, dtype=np.int64)
        self.rec_fec_bytes = np.zeros(shape, dtype=np.int64)
        self.rec_rtx_packets = np.zeros(shape, dtype=np.int64)
        self.rec_rtx_bytes = np.zeros(shape, dtype=np.int64)
        self.tgt_samples = np.empty((batch_size, samples), dtype=np.float64)


class _BatchFlowRun:
    """One array program over B structurally identical flow cells."""

    __slots__ = (
        "config",
        "cells",
        "batch_size",
        "steps",
        "dt",
        "consts",
        "lanes",
        "pool",
        "nows",
        "sample_steps",
        "sample_every",
        "frames_since_key",
        "debt",
        "blocked",
        "pending",
        "request_at",
        "last_request",
        "protection",
        "received_total",
        "fec_received_total",
        "fec_recovered_total",
        "size0",
        "key0",
        "qp0",
        "step_media",
        "step_fec",
        "rendered_size",
        "rendered_key",
        "rendered_qp",
        "rendered_completion",
        "tr_samples",
        "drops",
        "kf_requests",
        "path_events",
    )

    def __init__(
        self,
        config: CallConfig,
        cells: Sequence[Cell],
        links_per_cell: Sequence[Sequence[FlowLink]],
    ) -> None:
        self.config = config
        self.cells = list(cells)
        batch = len(cells)
        self.batch_size = batch
        self.dt = 1.0 / config.frame_rate
        self.steps = int(round(config.duration * config.frame_rate))
        steps = self.steps
        self.sample_every = max(int(round(SAMPLE_INTERVAL / self.dt)), 1)
        self.nows = [step * self.dt for step in range(steps)]
        self.sample_steps = list(range(0, steps, self.sample_every))
        samples = len(self.sample_steps)
        self.consts = [_PathConsts(links[0]) for links in zip(*links_per_cell)]
        initial_rate = float(config.gcc.initial_rate)
        query = np.arange(steps, dtype=np.float64) * self.dt
        self.lanes = [
            _PathLanes(_CapacityTable(links, query), samples, consts, initial_rate)
            for consts, links in zip(self.consts, zip(*links_per_cell))
        ]
        self.pool = _DrawPool(
            [derive_seed(cell.seed, "flow-session") for cell in cells]
        )
        shape = (batch,)
        self.frames_since_key = np.zeros(shape, dtype=np.int64)
        self.debt = np.zeros(shape, dtype=np.float64)
        self.blocked = np.zeros(shape, dtype=np.bool_)
        self.pending = np.zeros(shape, dtype=np.bool_)
        self.request_at = np.full(shape, math.inf, dtype=np.float64)
        self.last_request = np.full(shape, -math.inf, dtype=np.float64)
        self.protection = np.zeros(shape, dtype=np.float64)
        self.received_total = np.zeros(shape, dtype=np.int64)
        self.fec_received_total = np.zeros(shape, dtype=np.int64)
        self.fec_recovered_total = np.zeros(shape, dtype=np.int64)
        self.size0 = np.zeros(shape, dtype=np.int64)
        self.key0 = np.zeros(shape, dtype=np.bool_)
        self.qp0 = np.zeros(shape, dtype=np.float64)
        self.step_media = np.zeros(shape, dtype=np.int64)
        self.step_fec = np.zeros(shape, dtype=np.int64)
        # The records are lane-major, ``(B, T)``: a step writes a
        # column, and a payload reads its lane's row in place.  int32
        # sizes: no frame reaches 2 GiB (the encoder caps the bitrate).
        self.rendered_size = np.zeros((batch, steps), dtype=np.int32)
        self.rendered_key = np.zeros((batch, steps), dtype=np.bool_)
        self.rendered_qp = np.zeros((batch, steps), dtype=np.float64)
        self.rendered_completion = np.zeros((batch, steps), dtype=np.float64)
        self.tr_samples = np.empty((batch, samples), dtype=np.float64)
        # Dropped frames are only ever *counted* in the payload, so a
        # counter per cell replaces the scalar's per-drop event list.
        self.drops = np.zeros(batch, dtype=np.int64)
        self.kf_requests: List[List[Tuple[float, int]]] = [[] for _ in range(batch)]
        self.path_events: List[List[Tuple[float, int, str]]] = [
            [] for _ in range(batch)
        ]

    # -- the hot loop ------------------------------------------------------

    def run(self) -> Iterator[Dict[str, Any]]:
        config = self.config
        lanes = self.lanes
        consts = self.consts
        pool = self.pool
        dt = self.dt
        mtu = DEFAULT_MTU_PAYLOAD
        enc = config.encoder_template
        rd_model = enc.rd_model
        rd_anchor = rd_model.anchor_bitrate
        enc_min = enc.min_bitrate
        enc_cap = enc.max_bitrate
        gop_length = enc.gop_length
        key_mult = KEYFRAME_SIZE_MULTIPLIER
        size_jitter = enc.size_jitter
        jit_lo = -size_jitter
        jit_span = size_jitter - jit_lo
        frame_rate = config.frame_rate
        encoder_utilization = config.encoder_utilization
        max_latency = config.receiver.max_playout_latency
        decay_scaled = WATCHDOG_RATE_DECAY_FACTOR ** (
            dt / WATCHDOG_RATE_DECAY_INTERVAL
        )
        peak_decay = math.exp(-dt / _LOSS_PEAK_TAU)
        win_alpha = 1.0 - math.exp(-dt / DELIVERED_WINDOW)
        probe_run_bits_f = float(PROBE_RUN_BITS)
        growth_dt = GROWTH_PER_SECOND**dt
        near_lo = 1.0 - NEAR_CONVERGENCE_WINDOW
        near_hi = 1.0 + NEAR_CONVERGENCE_WINDOW
        half_mtu_bits = 0.5 * _MTU_BITS
        gcc_min = float(config.gcc.min_rate)
        gcc_max = float(config.gcc.max_rate)
        next_probe = _PROBE_INTERVAL
        sample_tick = 0
        sample_row = 0
        batch = self.batch_size
        inf = math.inf
        true_col = np.ones(batch, dtype=np.bool_)
        _loss_unit_cut = 1.0  # outage loss level
        step_draws = _step_draws(len(lanes))

        for step in range(self.steps):
            now = self.nows[step]
            pool.reserve(step_draws)

            # -- capacity + watchdog + per-path target, in pid order --
            flagged = False
            for p, lane in enumerate(lanes):
                cap = lane.caps.at(step)
                lane.cap = cap
                attention = (
                    (lane.silence != 0.0) | (cap <= 0.0)
                )
                if attention.any():
                    self._watchdog(
                        now, p, lane, cap, attention, decay_scaled, gcc_min
                    )
                # The per-path sending rate: min(rate, loss_rate), floored.
                tgt = np.minimum(lane.rate, lane.loss_rate)
                lane.tgt = np.maximum(tgt, gcc_min)
                if lane.disabled.any():
                    flagged = True

            if flagged:
                none_usable = true_col.copy()
                for lane in lanes:
                    none_usable &= lane.disabled
                usable = [
                    ~lane.disabled | none_usable for lane in lanes
                ]
            else:
                usable = [true_col for _ in lanes]

            # -- scheduler split: Eq. 1, by per-path rates ---------------
            # Every weight is at least ``gcc.min_rate``, so each usable
            # path is in the send set.
            total_weight = np.zeros(batch, dtype=np.float64)
            target_rate = np.zeros(batch, dtype=np.float64)
            for p, lane in enumerate(lanes):
                m = usable[p]
                lane.member = m.copy() if m is true_col else m
                w = lane.tgt
                lane.weight = w
                total_weight += np.where(m, w, 0.0)
                target_rate += np.where(m, w, 0.0)

            send_n = np.zeros(batch, dtype=np.int64)
            for lane in lanes:
                lane.rank = send_n.copy()
                send_n += lane.member
                lane.step_bytes.fill(0)
                lane.step_packets.fill(0)

            # -- sampling --------------------------------------------------
            if sample_tick == 0:
                self.tr_samples[:, sample_row] = target_rate
                for lane in lanes:
                    lane.tgt_samples[:, sample_row] = lane.tgt
                sample_row += 1
            sample_tick += 1
            if sample_tick == self.sample_every:
                sample_tick = 0

            # -- keyframe requests ----------------------------------------
            due = self.blocked & (now >= self.request_at)
            if due.any():
                fire = due & (
                    (now - self.last_request) >= KEYFRAME_REQUEST_MIN_INTERVAL
                )
                if fire.any():
                    self.last_request[fire] = now
                    self.request_at[fire] = inf
                    self.pending[fire] = True
                    for i in np.flatnonzero(fire).tolist():
                        self.kf_requests[i].append((now, 0))

            # -- encode: every lane, every step ----------------------------
            # Each usable path weighs at least ``gcc.min_rate`` and one
            # path is always usable, so no lane ever skips a frame.
            budget = target_rate * encoder_utilization / (1.0 + self.protection)
            # One stream: the whole budget is its bitrate.
            bitrate = np.where(budget < enc_min, enc_min, budget)
            bitrate = np.where(bitrate > enc_cap, enc_cap, bitrate)
            # The QP log never feeds back into the dynamics, so only
            # the RD ratio is recorded here; rendered frames get their
            # exact ``math.log`` at payload time.
            self.qp0 = np.where(bitrate > 1.0, bitrate, 1.0) / rd_anchor
            fsk = self.frames_since_key
            is_key = (fsk >= gop_length) | self.pending | (step == 0)
            base = bitrate / 8.0 / frame_rate
            debt = self.debt
            size_key = base * key_mult
            repay_cap = _KEYFRAME_DEBT_REPAY * base
            repay = np.where(debt < repay_cap, debt, repay_cap)
            size_f = np.where(is_key, size_key, base - repay)
            self.debt = np.where(is_key, debt + (size_key - base), debt - repay)
            self.frames_since_key = np.where(is_key, 0, fsk + 1)
            self.pending &= ~is_key
            u = pool.draw_all()
            size_f = size_f * (1.0 + (jit_lo + jit_span * u))
            size = size_f.astype(np.int64)
            size = np.where(size < _MIN_FRAME_BYTES, _MIN_FRAME_BYTES, size)
            self.size0 = size
            self.key0 = is_key
            self._allocate(send_n, total_weight, mtu)

            probe_due = now >= next_probe
            if probe_due:
                next_probe += _PROBE_INTERVAL

            # -- per-path send: queue, loss, FEC, control ------------------
            self.step_media.fill(0)
            self.step_fec.fill(0)
            for p, lane in enumerate(lanes):
                member = lane.member
                if not member.any():
                    continue
                # Full-membership fast path: gathers become views and
                # scatters become whole-array assigns.  Value semantics
                # are unchanged — every in-place mutation below either
                # rebinds or scatters through ``np.where`` before the
                # write-back.
                full = bool(member.all())
                if full:
                    idx: Any = slice(None)
                    m = batch
                else:
                    idx = np.flatnonzero(member)
                    m = idx.shape[0]
                pc = consts[p]
                mp = lane.step_packets[idx]
                mb = lane.step_bytes[idx]
                capv = lane.cap[idx]

                # FlowLink.step_loss, batched.
                if pc.burst_loss > 0.0:
                    n_pkts = np.where(mp > 0, mp, 1)
                    p_burst = pc.pburst(n_pkts)
                    u = pool.draw_all() if full else pool.draw(idx)
                    hit = u < p_burst
                    fraction = pc.burst_packets / n_pkts
                    fraction = np.where(fraction > 1.0, 1.0, fraction)
                    frame_loss = np.where(
                        hit,
                        pc.base_loss
                        + (pc.burst_loss - pc.base_loss) * fraction,
                        pc.base_loss,
                    )
                    inst_peak = np.where(hit, pc.burst_loss, pc.base_loss)
                else:
                    frame_loss = np.full(m, pc.base_loss)
                    inst_peak = frame_loss
                outage = capv <= 0.0
                any_outage = bool(outage.any())
                if any_outage:
                    frame_loss = np.where(outage, _loss_unit_cut, frame_loss)
                    inst_peak = np.where(outage, _loss_unit_cut, inst_peak)
                le = lane.loss_ewma[idx]
                le = le + _LOSS_SMOOTHING * (frame_loss - le)
                lane.loss_ewma[idx] = le
                decayed = lane.loss_peak[idx] * peak_decay
                peak_hold = np.where(decayed > frame_loss, decayed, frame_loss)
                lane.loss_peak[idx] = peak_hold

                # FEC packets to send alongside the media, batched.
                mpos = mp > 0
                fec_pk = np.zeros(m, dtype=np.int64)
                low = peak_hold < _MIN_LOSS_FOR_FEC
                zero = mpos & low
                if zero.any():
                    lane.carry[zero if full else idx[zero]] = 0.0
                act = mpos & ~low
                if act.any():
                    beta = lane.beta[idx]
                    elapsed = now - lane.last_update[idx]
                    decay_m = act & (elapsed > 0.0)
                    if decay_m.any():
                        factor = _scalar_map(
                            math.exp, -_BETA_DECAY * elapsed[decay_m]
                        )
                        nb = beta[decay_m]
                        beta[decay_m] = 1.0 + (nb - 1.0) * factor
                        lane.beta[idx] = beta
                        lane.last_update[
                            decay_m if full else idx[decay_m]
                        ] = now
                    prot = np.where(
                        peak_hold > _MAX_PROTECTED_LOSS,
                        _MAX_PROTECTED_LOSS,
                        peak_hold,
                    )
                    prot = prot * beta
                    prot = np.where(
                        prot > _MAX_PROTECTION, _MAX_PROTECTION, prot
                    )
                    exact = prot * mp + lane.carry[idx]
                    fec_raw = exact.astype(np.int64)
                    fec_raw = np.where(
                        (fec_raw == 0) & (exact >= _ROUND_UP_THRESHOLD),
                        1,
                        fec_raw,
                    )
                    carry = exact - fec_raw
                    carry = np.where(carry < 0.0, 0.0, carry)
                    carry = np.where(carry > 1.0, 1.0, carry)
                    lane.carry[idx] = np.where(
                        act, carry, lane.carry[idx]
                    )
                    fec_pk = np.where(
                        act, np.where(fec_raw > mp, mp, fec_raw), fec_pk
                    )
                fec_bytes = fec_pk * mtu

                # FlowLink.push, batched.
                backlog = lane.backlog[idx] - capv * dt / 8.0
                backlog = np.where(backlog < 0.0, 0.0, backlog)
                backlog = backlog + (mb + fec_bytes)
                overflow = backlog - pc.queue_cap
                spill = overflow > 0.0
                backlog = np.where(spill, pc.queue_cap, backlog)
                overflow = np.where(spill, overflow, 0.0)
                lane.backlog[idx] = backlog
                qd_open = backlog * 8.0 / capv
                queue_delay = np.where(
                    outage,
                    np.where(backlog > 0.0, inf, 0.0),
                    qd_open,
                )
                overflow_packets = (overflow // mtu).astype(np.int64)

                # The frame's fate on this path (steps 1-3 of
                # repro.flow.frames), batched.
                lossy = (frame_loss > 0.0) & (frame_loss < 1.0)
                lost = np.zeros(m, dtype=np.int64)
                drawable = mpos & lossy
                if drawable.any():
                    sub = np.flatnonzero(drawable)
                    u = pool.draw(sub if full else idx[sub])
                    lost[sub] = _binomial_walk(mp[sub], frame_loss[sub], u)
                fec_received = fec_pk.copy()
                fdraw = (fec_pk > 0) & lossy
                if fdraw.any():
                    sub = np.flatnonzero(fdraw)
                    u = pool.draw(sub if full else idx[sub])
                    fec_received[sub] = fec_pk[sub] - _binomial_walk(
                        fec_pk[sub], frame_loss[sub], u
                    )
                if any_outage or pc.loss_cap >= 1.0:
                    # Certain loss takes every packet, no draw.
                    total = frame_loss >= 1.0
                    lost = np.where(total, mp, lost)
                    fec_received = np.where(total, 0, fec_received)
                lost = lost + overflow_packets
                lost = np.where(lost > mp, mp, lost)
                no_loss = lost == 0
                fec_recovered = np.where(
                    no_loss,
                    0,
                    np.where(lost < fec_received, lost, fec_received),
                )
                remaining = lost - fec_recovered
                rtx_rounds = np.zeros(m, dtype=np.int64)
                for _ in range(MAX_RTX_ROUNDS):
                    act = ~no_loss & (remaining > 0)
                    if not act.any():
                        break
                    rtx_rounds = np.where(act, rtx_rounds + 1, rtx_rounds)
                    rdraw = act & lossy
                    walked = remaining
                    if rdraw.any():
                        sub = np.flatnonzero(rdraw)
                        u = pool.draw(sub if full else idx[sub])
                        walked = remaining.copy()
                        walked[sub] = _binomial_walk(
                            remaining[sub], frame_loss[sub], u
                        )
                    remaining = np.where(
                        act & (frame_loss <= 0.0),
                        0,
                        np.where(act, walked, remaining),
                    )
                delivered = np.where(no_loss, True, remaining == 0)
                delivered = delivered & ~outage

                # Burst kill draw (run-of-losses restoration).
                killed = np.zeros(m, dtype=np.bool_)
                km = ~outage & mpos & (inst_peak >= BURST_LOSS_FLOOR)
                if km.any():
                    kill_p = _BURST_KILL_FACTOR * frame_loss
                    kill_p = np.where(
                        kill_p > _BURST_KILL_MAX, _BURST_KILL_MAX, kill_p
                    )
                    sub = np.flatnonzero(km)
                    u = pool.draw(sub if full else idx[sub])
                    kk = u < kill_p[sub]
                    killed[sub] = kk
                    delivered = delivered & ~killed

                # Send records.
                lane.rec_media_packets[idx] += mp
                lane.rec_media_bytes[idx] += mb
                lane.rec_fec_packets[idx] += fec_pk
                lane.rec_fec_bytes[idx] += fec_bytes
                self.fec_received_total[idx] += fec_received
                self.fec_recovered_total[idx] += fec_recovered
                uncovered = lost - fec_recovered
                up = uncovered > 0
                if up.any():
                    lane.rec_rtx_packets[idx] += np.where(up, uncovered, 0)
                    lane.rec_rtx_bytes[idx] += np.where(
                        up, uncovered * mtu, 0
                    )
                    # QoE feedback: uncovered losses raise beta.
                    bump = up & mpos
                    if bump.any():
                        proposed = 1.0 + _BETA_BUMP * uncovered
                        beta = lane.beta[idx]
                        raised = bump & (proposed > beta)
                        capped = np.where(
                            proposed > _BETA_MAX, _BETA_MAX, proposed
                        )
                        lane.beta[idx] = np.where(raised, capped, beta)
                        lane.last_update[
                            bump if full else idx[bump]
                        ] = now

                srtt_sample = pc.prop2 + np.where(
                    queue_delay < 2.0, queue_delay, 2.0
                )
                sent = mb + fec_bytes
                offered = sent * 8.0 / dt
                delivered_bytes = np.where(
                    delivered,
                    mb,
                    np.where(mb - uncovered * mtu < 0, 0, mb - uncovered * mtu),
                )
                acked = delivered_bytes + fec_bytes
                delivered_rate = np.where(acked < sent, acked, sent) * 8.0 / dt

                rate_pre = lane.rate[idx]
                healthy = (
                    ~outage
                    & ~lane.degraded[idx]
                    & (le <= _PROBE_MAX_LOSS)
                    & (queue_delay <= _PROBE_MAX_QUEUE_DELAY)
                )
                if probe_due:
                    probe_bits = np.where(healthy, probe_run_bits_f, 0.0)
                else:
                    frame_probe = (
                        healthy
                        & (rate_pre >= _FRAME_PROBE_MIN_RATE)
                        & (mp + fec_pk >= _FRAME_PROBE_MIN_PACKETS)
                    )
                    probe_bits = np.where(
                        frame_probe, (mp + fec_pk - 1) * mtu * 8.0, 0.0
                    )

                # Controller step (regimes: repro.flow.rate_control),
                # batched.
                srtt = lane.srtt[idx]
                srtt = srtt + RTT_SMOOTHING * (srtt_sample - srtt)
                lane.srtt[idx] = srtt
                oa = lane.offered_avg[idx]
                oa = np.where(
                    oa <= 0.0, offered, oa + win_alpha * (offered - oa)
                )
                lane.offered_avg[idx] = oa
                da = lane.delivered[idx]
                da = np.where(
                    da <= 0.0,
                    delivered_rate,
                    da + win_alpha * (delivered_rate - da),
                )
                lane.delivered[idx] = da
                upd = ~outage
                if upd.any():
                    rate = rate_pre.copy()
                    lr = lane.loss_rate[idx]
                    hold_pre = lane.hold_until[idx]
                    burst = inst_peak >= BURST_LOSS_FLOOR
                    qd_over = queue_delay > OVERUSE_QUEUE_DELAY
                    misfire = np.zeros(m, dtype=np.bool_)
                    odraw = upd & ~qd_over & burst
                    if odraw.any():
                        sub = np.flatnonzero(odraw)
                        u = pool.draw(sub if full else idx[sub])
                        misfire[sub] = u < BURST_OVERUSE_PROBABILITY
                    overuse = upd & (qd_over | misfire)
                    grow = upd & ~overuse & (now >= hold_pre)
                    if overuse.any():
                        cut_base = np.where(da > 0.0, da, rate)
                        cut = BACKOFF_FACTOR * cut_base
                        rate = np.where(overuse & (cut < rate), cut, rate)
                        # The estimate reads the *post-cut* rate when
                        # nothing has been delivered yet.
                        lane.cap_est[idx] = np.where(
                            overuse,
                            np.where(da > 0.0, da, rate),
                            lane.cap_est[idx],
                        )
                        lane.has_est[idx] |= overuse
                        lane.hold_until[idx] = np.where(
                            overuse, now + HOLD_SECONDS, hold_pre
                        )
                    if grow.any():
                        saturated = oa >= 0.7 * rate
                        est = lane.cap_est[idx]
                        near = (
                            lane.has_est[idx]
                            & (near_lo * est <= da)
                            & (da <= near_hi * est)
                        )
                        denom = srtt + 0.1
                        denom = np.where(denom < 1e-3, 1e-3, denom)
                        additive = rate + half_mtu_bits / denom * dt
                        multiplicative = rate * growth_dt
                        rate = np.where(
                            grow & near,
                            additive,
                            np.where(
                                grow & ~near & saturated,
                                multiplicative,
                                rate,
                            ),
                        )
                        rate_cap = 1.5 * da + 10_000.0
                        rate = np.where(
                            grow & saturated & (da > 0.0) & (rate > rate_cap),
                            rate_cap,
                            rate,
                        )
                        pj = grow & (probe_bits > 0.0)
                        if pj.any():
                            est_bps = probe_bits / (
                                PROBE_JITTER_SPAN + probe_bits / capv
                            )
                            jump_m = pj & (est_bps > 1.5 * rate)
                            if jump_m.any():
                                jump = 0.85 * est_bps
                                limit = 4.0 * rate
                                jumped = np.where(jump < limit, jump, limit)
                                rate = np.where(jump_m, jumped, rate)
                                lr = np.where(
                                    jump_m & (lr < rate), rate, lr
                                )
                    # Loss-based branch at RTCP report cadence.
                    accum = np.where(
                        upd, lane.loss_accum[idx] + dt, lane.loss_accum[idx]
                    )
                    while True:
                        fire = upd & (accum >= LOSS_REPORT_INTERVAL)
                        if not fire.any():
                            break
                        accum = np.where(
                            fire, accum - LOSS_REPORT_INTERVAL, accum
                        )
                        fraction = frame_loss
                        dilute = fire & burst & (
                            frame_loss <= LOSS_CUT_THRESHOLD
                        )
                        if dilute.any():
                            report_packets = (
                                offered * LOSS_REPORT_INTERVAL / _MTU_BITS
                            )
                            report_packets = np.where(
                                report_packets < 1.0, 1.0, report_packets
                            )
                            diluted = BURST_EXPECTED_LOSSES / report_packets
                            fraction = np.where(
                                dilute,
                                np.where(
                                    inst_peak <= diluted, inst_peak, diluted
                                ),
                                fraction,
                            )
                        lr = np.where(
                            fire & (fraction > LOSS_CUT_THRESHOLD),
                            lr * (1.0 - 0.5 * fraction),
                            np.where(
                                fire & (fraction < LOSS_PROBE_THRESHOLD),
                                lr * 1.05,
                                lr,
                            ),
                        )
                    lane.loss_accum[idx] = accum
                    loss_cap = 2.0 * rate
                    lr = np.where(
                        upd,
                        np.where(
                            lr > loss_cap,
                            loss_cap,
                            np.where(lr < gcc_min, gcc_min, lr),
                        ),
                        lr,
                    )
                    lane.loss_rate[idx] = lr
                    rate = np.where(
                        upd,
                        np.where(
                            rate < gcc_min,
                            gcc_min,
                            np.where(rate > gcc_max, gcc_max, rate),
                        ),
                        rate,
                    )
                    lane.rate[idx] = rate

                completion = (
                    np.where(queue_delay < 4.0, queue_delay, 4.0) + pc.prop
                ) + rtx_rounds * srtt
                lane.out_delivered[idx] = delivered
                lane.out_completion[idx] = completion
                lane.out_killed[idx] = killed
                self.step_media[idx] += mb
                self.step_fec[idx] += fec_bytes

            # -- idle paths ------------------------------------------------
            for lane in lanes:
                im = ~lane.member
                draining = im & (lane.backlog > 0.0)
                if draining.any():
                    bl = lane.backlog - lane.cap * dt / 8.0
                    bl = np.where(bl < 0.0, 0.0, bl)
                    lane.backlog = np.where(draining, bl, lane.backlog)
                dec = im & (lane.cap <= 0.0)
                if dec.any():
                    r = lane.rate * decay_scaled
                    lane.rate = np.where(
                        dec, np.where(r < gcc_min, gcc_min, r), lane.rate
                    )
                    lr2 = lane.loss_rate * decay_scaled
                    lane.loss_rate = np.where(
                        dec,
                        np.where(lr2 < gcc_min, gcc_min, lr2),
                        lane.loss_rate,
                    )

            # -- FEC budget feedback ---------------------------------------
            pm = self.step_media > 0
            if pm.any():
                instant = self.step_fec / self.step_media
                self.protection = np.where(
                    pm,
                    self.protection
                    + _PROTECTION_SMOOTHING * (instant - self.protection),
                    self.protection,
                )

            # -- frame finish ----------------------------------------------
            self._finish(step, now, max_latency)

        return self._finalize()

    # -- step helpers ------------------------------------------------------

    def _watchdog(
        self,
        now: float,
        p: int,
        lane: _PathLanes,
        cap: F8,
        attention: B1,
        decay_scaled: float,
        gcc_min: float,
    ) -> None:
        pid = self.consts[p].path_id
        dark = attention & (cap <= 0.0)
        if dark.any():
            lane.silence = np.where(dark, lane.silence + self.dt, lane.silence)
            over = dark & (lane.silence > WATCHDOG_DEGRADE_TIMEOUT)
            if over.any():
                newly = over & ~lane.degraded
                if newly.any():
                    lane.degraded |= newly
                    for i in np.flatnonzero(newly).tolist():
                        self.path_events[i].append((now, pid, "degraded"))
                r = lane.rate * decay_scaled
                lane.rate = np.where(
                    over, np.where(r < gcc_min, gcc_min, r), lane.rate
                )
                lr = lane.loss_rate * decay_scaled
                lane.loss_rate = np.where(
                    over, np.where(lr < gcc_min, gcc_min, lr), lane.loss_rate
                )
            gone = (
                dark
                & (lane.silence > WATCHDOG_SILENCE_TIMEOUT)
                & ~lane.disabled
            )
            if gone.any():
                lane.disabled |= gone
                for i in np.flatnonzero(gone).tolist():
                    self.path_events[i].append((now, pid, "disabled"))
        back = attention & (cap > 0.0) & (lane.silence > 0.0)
        if back.any():
            lane.silence = np.where(back, 0.0, lane.silence)
            restored = back & lane.degraded
            enabled = back & lane.disabled
            lane.degraded &= ~restored
            lane.disabled &= ~enabled
            if restored.any() or enabled.any():
                rs = set(np.flatnonzero(restored).tolist())
                es = set(np.flatnonzero(enabled).tolist())
                for i in sorted(rs | es):
                    if i in rs:
                        self.path_events[i].append((now, pid, "restored"))
                    if i in es:
                        self.path_events[i].append((now, pid, "enabled"))

    def _allocate(self, send_n: I8, total_weight: F8, mtu: int) -> None:
        """Split ``size0`` over member paths (``_allocate``, batched)."""
        lanes = self.lanes
        batch = self.batch_size
        size = self.size0
        key = self.key0
        one = send_n == 1
        two = send_n == 2
        two_prop = two & ~key
        gen = send_n >= 3
        conv_key = (two | gen) & key
        gen_split = gen & ~key
        if two_prop.any():
            w_first = np.zeros(batch, dtype=np.float64)
            for lane in lanes:
                first = two_prop & lane.member & (lane.rank == 0)
                w_first = np.where(first, lane.weight, w_first)
            share = (size * w_first / total_weight).astype(np.int64)
        if conv_key.any():
            # Keyframes ride the path with the smallest srtt + queue
            # delay at the current target (first-min in pid order).
            best_col = np.full(batch, -1, dtype=np.int64)
            best_score = np.zeros(batch, dtype=np.float64)
            for p, lane in enumerate(lanes):
                m = conv_key & lane.member
                if not m.any():
                    continue
                drain_rate = np.where(lane.tgt > 1.0, lane.tgt, 1.0)
                qd = np.where(
                    lane.backlog > 0.0,
                    lane.backlog * 8.0 / drain_rate,
                    0.0,
                )
                score = lane.srtt + qd
                first = m & (best_col < 0)
                better = m & (best_col >= 0) & (score < best_score)
                pick = first | better
                best_col = np.where(pick, p, best_col)
                best_score = np.where(pick, score, best_score)
        assigned = np.zeros(batch, dtype=np.int64)
        if gen_split.any():
            for lane in lanes:
                head = gen_split & lane.member & (lane.rank < send_n - 1)
                if head.any():
                    part = (size * lane.weight / total_weight).astype(
                        np.int64
                    )
                    lane.step_bytes = np.where(
                        head, part, lane.step_bytes
                    )
                    assigned += np.where(head, part, 0)
        for p, lane in enumerate(lanes):
            m = lane.member
            sb = lane.step_bytes
            sb = np.where(one & m, size, sb)
            if two_prop.any():
                sb = np.where(two_prop & m & (lane.rank == 0), share, sb)
                sb = np.where(
                    two_prop & m & (lane.rank == 1), size - share, sb
                )
            if conv_key.any():
                sb = np.where(conv_key & (best_col == p), size, sb)
            if gen_split.any():
                sb = np.where(
                    gen_split & m & (lane.rank == send_n - 1),
                    size - assigned,
                    sb,
                )
            lane.step_bytes = sb
            positive = sb > 0
            lane.step_packets = np.where(positive, -((-sb) // mtu), 0)

    def _hard_drop(self, now: float, idx: I8) -> None:
        """Drop the in-flight frame for the listed cells."""
        blocked = self.blocked
        request_at = self.request_at
        rearm = ~blocked[idx] | (request_at[idx] == math.inf)
        request_at[idx[rearm]] = now + _KEYFRAME_RECOVERY_DELAY
        blocked[idx] = True
        self.drops[idx] += 1

    def _finish(self, step: int, now: float, max_latency: float) -> None:
        lanes = self.lanes
        pool = self.pool
        batch = self.batch_size
        completion = np.zeros(batch, dtype=np.float64)
        any_failed = np.zeros(batch, dtype=np.bool_)
        dropped = np.zeros(batch, dtype=np.bool_)
        dropped_any = False
        size = self.size0
        for lane in lanes:
            act = lane.member & (lane.step_bytes > 0)
            if dropped_any:
                act &= ~dropped
            if not act.any():
                continue
            kb = act & lane.out_killed
            if kb.any():
                sub = np.flatnonzero(kb)
                u = pool.draw(sub)
                share = lane.step_bytes[sub] / size[sub]
                kdrop = u < share
                if kdrop.any():
                    gone = sub[kdrop]
                    dropped[gone] = True
                    dropped_any = True
                    self._hard_drop(now, gone)
                any_failed[sub[~kdrop]] = True
            fold = act & ~lane.out_killed
            if fold.any():
                completion = np.where(
                    fold & (lane.out_completion > completion),
                    lane.out_completion,
                    completion,
                )
                any_failed |= fold & ~lane.out_delivered
        if any_failed.any():
            need_best = any_failed & ~dropped if dropped_any else any_failed
            # Salvage pass over the (few) cells whose frame missed on
            # some path: gather them down to a short index vector.
            nb = np.flatnonzero(need_best)
            if nb.size:
                best_comp = np.zeros(nb.size, dtype=np.float64)
                best_srtt = np.zeros(nb.size, dtype=np.float64)
                found = np.zeros(nb.size, dtype=np.bool_)
                for lane in lanes:
                    # A failed path never reads as delivered.
                    cand = lane.member[nb] & lane.out_delivered[nb]
                    if not cand.any():
                        continue
                    comp_nb = lane.out_completion[nb]
                    first = cand & ~found
                    better = cand & found & (comp_nb < best_comp)
                    pick = first | better
                    best_comp = np.where(pick, comp_nb, best_comp)
                    best_srtt = np.where(pick, lane.srtt[nb], best_srtt)
                    found |= cand
                nobody = nb[~found]
                if nobody.size:
                    dropped[nobody] = True
                    dropped_any = True
                    self._hard_drop(now, nobody)
                if found.any():
                    salvage = best_comp + best_srtt
                    cur = completion[nb]
                    completion[nb] = np.where(
                        found & (salvage > cur), salvage, cur
                    )
        late = completion > max_latency
        if dropped_any:
            late &= ~dropped
        if late.any():
            lidx = np.flatnonzero(late)
            dropped[lidx] = True
            dropped_any = True
            self._hard_drop(now, lidx)
        if self.blocked.any():
            gap = self.blocked & ~self.key0
            if dropped_any:
                gap &= ~dropped
            if gap.any():
                gidx = np.flatnonzero(gap)
                dropped[gidx] = True
                dropped_any = True
                self.drops[gidx] += 1
        if not dropped_any:
            # Everyone rendered: whole-column writes, no index gathers.
            self.received_total += size
            self.blocked.fill(False)
            self.rendered_size[:, step] = size
            self.rendered_key[:, step] = self.key0
            self.rendered_qp[:, step] = self.qp0
            self.rendered_completion[:, step] = completion
            return
        render = ~dropped
        if render.any():
            ridx = np.flatnonzero(render)
            self.received_total[ridx] += size[ridx]
            self.blocked[ridx] = False
            self.rendered_size[ridx, step] = size[ridx]
            self.rendered_key[ridx, step] = self.key0[ridx]
            self.rendered_qp[ridx, step] = self.qp0[ridx]
            self.rendered_completion[ridx, step] = completion[ridx]

    # -- payload construction ----------------------------------------------

    def _finalize(self) -> Iterator[Dict[str, Any]]:
        """The payloads, lanes in order, each built when it is taken.

        Nothing below runs until the first payload is asked for, and
        none is held here once handed over: unless the caller collects
        them, the run's footprint is its own arrays, not B result
        dicts.  What only the loop needed is released first — the draw
        window (:data:`_POOL_CHUNK` doubles a lane) and the capacity
        tables (an int32 position a lane and step) — and the records
        are read in place, a lane's row each, with no copy beside them.
        """
        del self.pool
        for lane in self.lanes:
            del lane.caps, lane.cap
        nows = np.array(self.nows, dtype=np.float64)
        sample_nows = [self.nows[s] for s in self.sample_steps]
        # Receive-rate window cutoffs: first retained render step per
        # sample instant (strictly-older entries are evicted).
        cut_index = np.searchsorted(
            nows, np.array(sample_nows) - 1.0, side="left"
        )
        sample_index = np.array(self.sample_steps, dtype=np.int64)
        render_cum = np.zeros(self.steps + 1, dtype=np.int64)
        records = (
            self.rendered_size,
            self.rendered_key,
            self.rendered_qp,
            self.rendered_completion,
            self.tr_samples,
        )
        for i, cell in enumerate(self.cells):
            rows = [record[i] for record in records]
            np.cumsum(rows[0], dtype=np.int64, out=render_cum[1:])
            rows.append((render_cum[sample_index] - render_cum[cut_index]) * 8 / 1.0)
            yield self._cell_payload(
                i, cell, nows, sample_nows, rows,
                [lane.tgt_samples[i] for lane in self.lanes],
            )

    def _cell_payload(
        self,
        i: int,
        cell: Cell,
        nows: F8,
        sample_nows: List[float],
        rows: List[NDArray[Any]],
        path_rates: List[F8],
    ) -> Dict[str, Any]:
        """Lane ``i`` as the scalar loop ends its call: its records
        fill a :class:`MetricsCollector`, which goes through
        ``summarize`` and ``result_to_dict`` as in
        ``FlowCall._finalize`` and ``runner.execute_cell``."""
        config = self.config
        rd = config.encoder_template.rd_model
        sizes, keys, ratios, completions, target_rates, receive_rates = rows
        steps = np.flatnonzero(sizes)
        capture = nows[steps]
        comp = completions[steps]
        render = capture + comp
        # The loop recorded the RD ratio: the encoder's ``math.log`` of
        # it and the QP clamp happen here, once per rendered frame.
        log_ratio = np.fromiter(map(math.log, ratios[steps].tolist()), np.float64)
        qp = np.clip(rd.qp_anchor - rd.qp_slope * log_ratio, rd.qp_min, rd.qp_max)
        capture_list = capture.tolist()
        metrics = MetricsCollector()
        # Every lane encodes at every step: a frame's id is its step.
        metrics.rendered = list(
            map(
                RenderedFrame,
                repeat(0),
                steps.tolist(),
                capture_list,
                render.tolist(),
                sizes[steps].tolist(),
                keys[steps].tolist(),
                repeat(False),
                qp.tolist(),
            )
        )
        series_rows = [
            (metrics.fcd_series, capture_list, comp),
            (metrics.ifd_series, capture_list[1:], render[1:] - render[:-1]),
            (metrics.target_rate_series, sample_nows, target_rates),
            (metrics.receive_rate_series, sample_nows, receive_rates),
        ]
        for consts, lane, rates in zip(self.consts, self.lanes, path_rates):
            pid = consts.path_id
            metrics.path_rate_series[pid] = TimeSeries()
            series_rows.append((metrics.path_rate_series[pid], sample_nows, rates))
            metrics.path_sends[pid] = PathSendRecord(
                *(int(getattr(lane, f"rec_{field}")[i]) for field in _SEND_FIELDS)
            )
        for series, times, values in series_rows:
            series.times, series.values = times, values.tolist()
        metrics.received_media_bytes = int(self.received_total[i])
        metrics.record_fec_stats(
            int(self.fec_received_total[i]), int(self.fec_recovered_total[i])
        )
        metrics.frame_drop_count = int(self.drops[i])
        metrics.keyframe_requests = self.kf_requests[i]
        metrics.path_events = self.path_events[i]
        summary = summarize(
            metrics,
            duration=config.duration,
            num_streams=config.num_streams,
            frame_rate=config.frame_rate,
            rd_model=rd,
        )
        config = dataclasses.replace(config, seed=cell.seed, label=cell.label)
        return result_to_dict(CallResult(config, summary, metrics))


# ---------------------------------------------------------------------------
# Group execution


def iter_batch(cells: Sequence[Cell]) -> Iterator[Dict[str, Any]]:
    """Step one planned group as an array program.

    ``cells`` is one group of :func:`plan_batches`: every cell
    :func:`batchable`, all with one :func:`group_key`.  Anything else
    raises ``ValueError`` before a step runs.  Payloads come in input
    order, equal to the scalar runner's, and one at a time: the array
    program has run to its last step by the first, each payload is
    built when it is taken, and what is kept of it is the consumer's
    business.
    """
    for cell in cells:
        if not batchable(cell):
            raise ValueError(
                f"not batchable: {cell.effective_label} seed={cell.seed}"
            )
    keys = len({group_key(cell) for cell in cells})
    if keys > 1:
        raise ValueError(f"one group_key per array program, not {keys}")
    if not cells:
        return
    from repro.core.api import build_call_config

    links_per_cell = [
        [
            FlowLink(pc)
            for pc in sorted(
                cell.paths.build(cell.duration, cell.seed),
                key=lambda pc: pc.path_id,
            )
        ]
        for cell in cells
    ]
    config = build_call_config(SystemKind.CONVERGE, duration=cells[0].duration)
    run = _BatchFlowRun(config, cells, links_per_cell)
    # The traces are tabulated into the run's capacity tables.
    del links_per_cell
    # One suppressed-warning window for the whole array program:
    # guarded divisions (outage capacities, lanes that sent no media)
    # are selected away by ``np.where`` right after they happen.
    with np.errstate(divide="ignore", invalid="ignore"):
        payloads = run.run()
    yield from payloads


def execute_batch(cells: Sequence[Cell]) -> List[Dict[str, Any]]:
    """:func:`iter_batch`, collected: every payload, in input order."""
    return list(iter_batch(cells))
