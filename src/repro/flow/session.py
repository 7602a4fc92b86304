"""Flow-level session driver: one call, one frame-interval loop.

:func:`run_flow_call` is the flow-fidelity twin of
:func:`repro.core.api.run_call`: same :class:`CallConfig`, same
:class:`PathConfig` list, same fault-plan and churn inputs, same
:class:`CallResult` out — it populates a real
:class:`MetricsCollector` and hands it to the same ``summarize``, so
``analysis/export.result_to_dict`` produces an identical payload
shape with zero export-layer duplication.  A config that sets what the
flow model does not read is refused (:func:`refuse_unmodelled`).

Instead of discrete packet events the call advances one frame
interval (``1 / frame_rate``) at a time.  Each step: apply churn and
fault windows, update per-path watchdog state, approximate the
scheduler's split as per-frame byte allocations, size FEC from the
same protection policies, push bytes through the fluid queues, draw
the frame's loss outcome, and decide render/drop plus the decode
chain (a lost frame blocks delta frames until a requested keyframe
arrives).  The rate controllers are
:class:`repro.flow.rate_control.SteadyStateGcc` instances — see that
module and DESIGN.md for what is and is not carried over from the
packet-level GCC.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cc.gcc import _LOSS_PEAK_TAU, _LOSS_SMOOTHING, _PROBE_SEND_GAP
from repro.cc.pacing import _DEFAULT_PACING_FACTOR
from repro.core.api import collector_paused
from repro.core.config import (
    WATCHDOG_DEGRADE_TIMEOUT,
    WATCHDOG_RATE_DECAY_FACTOR,
    WATCHDOG_RATE_DECAY_INTERVAL,
    WATCHDOG_SILENCE_TIMEOUT,
    CallConfig,
    FecMode,
    SystemKind,
)
# Padding probe-burst cadence.  The t=0 tick never measures anything
# (no media in flight yet), so the first effective probe lands at
# t=2 s, as in the packet traces, where every system's first rate
# jump is at ~2.1 s.
from repro.core.sender import _CAPACITY_PROBE_INTERVAL as _PROBE_INTERVAL
from repro.core.session import (
    _DRAIN_GRACE_MAX,
    _DRAIN_GRACE_MIN,
    SAMPLE_INTERVAL,
    CallResult,
)
from repro.faults.plan import ChurnAction, FaultKind, FaultPlan
from repro.fec.converge_controller import (
    _BETA_DECAY_PER_SECOND as _BETA_DECAY,
    _MAX_PROTECTED_LOSS,
    _MAX_PROTECTION,
    _MIN_LOSS_FOR_FEC,
    _ROUND_UP_THRESHOLD,
)
from repro.fec.tables import webrtc_protection_factor
from repro.flow.frames import (
    MAX_RTX_ROUNDS,
    PathFec,
    binomial_draw,
)
from repro.flow.link import FlowLink
from repro.flow.rate_control import (
    _MTU_BITS,
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
    SteadyStateGcc,
)
from repro.metrics.collector import (
    MetricsCollector,
    PathSendRecord,
    RenderedFrame,
)
from repro.metrics.qoe import summarize
from repro.net.path import PathConfig
from repro.receiver.session import (
    KEYFRAME_REQUEST_MIN_INTERVAL,
    ReceiverConfig,
)
from repro.rtp.packets import DEFAULT_MTU_PAYLOAD
from repro.simulation.random import RandomStreams
from repro.traces.scenarios import birth_path
from repro.video.encoder import KEYFRAME_SIZE_MULTIPLIER

# Delta frames repay at most this fraction of a base frame per frame.
_KEYFRAME_DEBT_REPAY = 0.2
# Smallest encoded frame the encoder will emit.
_MIN_FRAME_BYTES = 200
# WebRTC-CM migration behaviour (scheduling/singlepath.py).
_CM_FAILURE_TIMEOUT = 2.0
_CM_RECONNECT_DELAY = 1.5
# Smoothing for the FEC-overhead share the encoder budget discounts.
_PROTECTION_SMOOTHING = 0.2
# Probe suppression gates, mirrored from core.sender: a path with
# more than 8% smoothed loss or a standing queue is never probed.
_PROBE_MAX_LOSS = 0.08
_PROBE_MAX_QUEUE_DELAY = 0.08
# Media frames double as probe bursts once the pacer releases packets
# closer together than the probe send-gap threshold: gap = MTU_bits /
# (pacing_factor * rate) <= _PROBE_SEND_GAP, i.e. rate >= ~4.27 Mbps.
_FRAME_PROBE_MIN_RATE = DEFAULT_MTU_PAYLOAD * 8 / (
    _DEFAULT_PACING_FACTOR * _PROBE_SEND_GAP
)
_FRAME_PROBE_MIN_PACKETS = 5
# A Gilbert-Elliott burst kills packets *consecutively*, which defeats
# both FEC (parity cannot cover a run) and NACK recovery (the
# retransmissions die in the same burst).  A burst-hit frame is lost
# outright with probability proportional to the slice of the frame
# the burst covered; calibrated against the packet goldens, where
# nearly every 4 s driving call shows one such hard loss.
_BURST_KILL_FACTOR = 2.75
_BURST_KILL_MAX = 0.9
# Hard frame loss to keyframe-request latency: NACK retries, the
# frame-buffer abandon deadline and the 0.25 s desync watch add up to
# ~0.7 s in the packet receiver before the PLI goes out (measured:
# loss at ~1.57 s -> request at 2.25 s -> keyframe captured 2.30 s).
_KEYFRAME_RECOVERY_DELAY = 0.68
# A path death only costs in-flight media if the path carried bytes
# within the last few frame intervals.
_DEATH_MEDIA_WINDOW = 0.1


class _PathState:
    """Everything the flow loop tracks for one path."""

    __slots__ = (
        "link",
        "ctrl",
        "fec",
        "record",
        "loss_ewma",
        "loss_peak",
        "feedback_dark",
        "silence",
        "degraded",
        "disabled",
        "draining",
        "drain_deadline",
        "last_media_time",
        # Per-step scratch maintained by the run loop: the step's
        # effective capacity and target rate, the media this frame
        # placed on the path, whether the path sent this step, the
        # scheduler weight, and the send outcome the finish stage
        # consumes (delivered / completion / burst-killed).
        "cap",
        "tgt",
        "step_bytes",
        "step_packets",
        "step_key",
        "stepped",
        "weight",
        "out_delivered",
        "out_completion",
        "out_killed",
    )

    def __init__(self, link: FlowLink, ctrl: SteadyStateGcc, fec: PathFec) -> None:
        self.link = link
        self.ctrl = ctrl
        self.fec = fec
        self.record = PathSendRecord()
        self.loss_ewma = 0.0
        self.loss_peak = 0.0
        self.feedback_dark = False
        self.silence = 0.0
        self.degraded = False
        self.disabled = False
        self.draining = False
        self.drain_deadline = 0.0
        self.last_media_time = -math.inf
        self.cap = 0.0
        self.tgt = 0.0
        self.step_bytes = 0
        self.step_packets = 0
        self.step_key = False
        self.stepped = False
        self.weight = 0.0
        self.out_delivered = False
        self.out_completion = 0.0
        self.out_killed = False


class _StreamState:
    """Per-stream encoder and decode-chain state."""

    __slots__ = (
        "frame_id",
        "frames_since_key",
        "debt",
        "blocked",
        "pending_keyframe",
        "request_at",
        "last_request",
        "last_render",
        # Per-step scratch: the frame this step encoded and the
        # (path state, bytes) slices it was split into.
        "size",
        "is_key",
        "alloc",
    )

    def __init__(self) -> None:
        self.frame_id = 0
        self.frames_since_key = 0
        self.debt = 0.0
        self.blocked = False
        self.pending_keyframe = False
        # When the receiver's loss-detection chain (NACK retries, the
        # frame-buffer abandon deadline, the desync watch) will issue
        # the keyframe request for the current outage.
        self.request_at = math.inf
        self.last_request = -math.inf
        self.last_render = -math.inf
        self.size = 0
        self.is_key = False
        self.alloc: Sequence[Tuple[_PathState, int]] = ()


class FlowCall:
    """One flow-fidelity conference call."""

    __slots__ = (
        "config",
        "metrics",
        "_paths",
        "_streams",
        "_stream_states",
        "_rng",
        "_fault_plan",
        "_churn_scenario",
        "_faults_recorded",
        "_churn_applied",
        "_path_edits",
        "_pinned_path",
        "_cm_reconnect_until",
        "_next_probe",
        "_reroute_probe",
        "_protection",
        "_received_window",
        "_received_total",
        "_window_bytes",
        "_fec_received",
        "_fec_recovered",
        "_step_dt",
        "_total_steps",
    )

    def __init__(
        self,
        config: CallConfig,
        path_configs: Sequence[PathConfig],
        fault_plan: Optional[FaultPlan] = None,
        churn_scenario: Optional[str] = None,
    ) -> None:
        if not path_configs:
            raise ValueError("a call needs at least one path")
        refuse_unmodelled(config)
        self.config = config
        self.metrics = MetricsCollector()
        self._streams = RandomStreams(config.seed)
        self._rng = self._streams.stream("flow-session")
        self._step_dt = 1.0 / config.frame_rate
        self._total_steps = int(round(config.duration * config.frame_rate))
        self._paths: Dict[int, _PathState] = {}
        # Bumped by every birth and removal: the run loop rebuilds its
        # path lists only when this moves.
        self._path_edits = 0
        for path_config in path_configs:
            self._add_path_state(path_config)
        self._stream_states = [_StreamState() for _ in range(config.num_streams)]
        self._fault_plan = fault_plan
        self._churn_scenario = churn_scenario
        self._faults_recorded: Set[int] = set()
        self._churn_applied = 0
        self._pinned_path = config.single_path_id
        if self._pinned_path not in self._paths:
            self._pinned_path = min(self._paths)
        self._cm_reconnect_until = -math.inf
        self._next_probe = _PROBE_INTERVAL
        self._reroute_probe = False
        self._protection = 0.0
        self._received_window: List[Tuple[float, int]] = []
        self._received_total = 0
        self._window_bytes = 0
        self._fec_received = 0
        self._fec_recovered = 0

    # -- path lifecycle ----------------------------------------------------

    def _add_path_state(self, path_config: PathConfig) -> None:
        link = FlowLink(path_config)
        link.precompute(self._step_dt, self._total_steps)
        ctrl = SteadyStateGcc(
            self.config.gcc, 2.0 * path_config.propagation_delay
        )
        self._paths[path_config.path_id] = _PathState(
            link, ctrl, PathFec(self.config.fec_mode)
        )
        self._path_edits += 1

    def _birth_path(self, now: float, path_id: int, network: str) -> None:
        if self._churn_scenario is None:
            raise ValueError(
                "cannot synthesize a mid-call path without a trace "
                "scenario (pass churn_scenario to the call)"
            )
        config = birth_path(
            self._churn_scenario,
            network,
            path_id,
            self.config.duration,
            self._streams,
        )
        self._add_path_state(config)
        self.metrics.record_churn_event(now, path_id, "birth")

    def _live_path_count(self) -> int:
        return sum(1 for s in self._paths.values() if not s.draining)

    def _remove_path(self, now: float, path_id: int) -> None:
        state = self._paths.pop(path_id, None)
        if state is None:
            return
        self._path_edits += 1
        # Keep the send record: exported payloads account every path
        # that ever carried bytes, dead or alive.
        self.metrics.path_sends.setdefault(path_id, state.record)
        self.metrics.record_churn_event(now, path_id, "removed")
        # The packet sender drains the removed path's pacer queue onto
        # the survivors back-to-back — an implicit probe burst (packet
        # traces show the surviving path's rate jump right after every
        # migration, well ahead of the periodic probe tick).
        self._reroute_probe = True

    def _apply_churn(self, now: float) -> None:
        if self._fault_plan is None:
            return
        churn = self._fault_plan.churn
        while self._churn_applied < len(churn):
            event = churn[self._churn_applied]
            if event.time > now:
                return
            self._churn_applied += 1
            if event.action is ChurnAction.BIRTH:
                self._birth_path(now, event.path_id, event.network or "")
            elif event.action is ChurnAction.DRAIN:
                state = self._paths.get(event.path_id)
                if state is None or self._live_path_count() <= 1:
                    continue
                state.draining = True
                grace = min(
                    max(2.0 * state.ctrl.srtt, _DRAIN_GRACE_MIN),
                    _DRAIN_GRACE_MAX,
                )
                state.drain_deadline = now + grace
                self.metrics.record_churn_event(now, event.path_id, "drain")
            elif event.action is ChurnAction.DEATH:
                state = self._paths.get(event.path_id)
                if state is None:
                    continue
                if self._live_path_count() <= 1 and not state.draining:
                    continue
                self.metrics.record_churn_event(now, event.path_id, "death")
                self._on_path_death(now, state)
                self._remove_path(now, event.path_id)

    def _on_path_death(self, now: float, state: _PathState) -> None:
        """An abrupt death strands the path's in-flight media.

        Unlike a drain (which stops allocating before removal), a death
        takes queued and in-transit packets with it; the packet traces
        show a ~0.7 s freeze at every death of a media-carrying path,
        multipath or not, because the decode chain re-anchors through
        the keyframe-request pipeline.
        """
        if now - state.last_media_time > _DEATH_MEDIA_WINDOW:
            return
        for stream in self._stream_states:
            if not stream.blocked or stream.request_at == math.inf:
                stream.request_at = now + _KEYFRAME_RECOVERY_DELAY
            stream.blocked = True

    def _finish_drains(self, now: float) -> None:
        expired = [
            pid
            for pid, state in self._paths.items()
            if state.draining and now >= state.drain_deadline
        ]
        for pid in expired:
            if len(self._paths) > 1:
                self._remove_path(now, pid)

    # -- faults ------------------------------------------------------------

    def _apply_faults(self, now: float) -> None:
        for state in self._paths.values():
            link = state.link
            link.capacity_cap = None
            link.loss_override = None
            link.extra_delay = 0.0
            link.queue_cap_override = None
            state.feedback_dark = False
        if self._fault_plan is None:
            return
        for index, event in enumerate(self._fault_plan.events):
            if event.start > now:
                break
            if now >= event.end:
                continue
            if index not in self._faults_recorded:
                self._faults_recorded.add(index)
                self.metrics.record_fault(
                    event.kind.value, event.path_id, event.start, event.end
                )
            state = self._paths.get(event.path_id)
            if state is None:
                continue
            link = state.link
            kind = event.kind
            if kind is FaultKind.BLACKOUT:
                link.capacity_cap = 0.0
            elif kind is FaultKind.CAPACITY_CAP:
                link.capacity_cap = event.magnitude
            elif kind is FaultKind.LOSS_STORM:
                link.loss_override = event.magnitude
            elif kind is FaultKind.DELAY_SPIKE:
                link.extra_delay += event.magnitude
            elif kind is FaultKind.QUEUE_FLAP:
                link.queue_cap_override = int(event.magnitude)
            elif kind is FaultKind.FEEDBACK_BLACKOUT:
                state.feedback_dark = True
            # FEEDBACK_LOSS < 1.0 has no flow-level effect: partial
            # RTCP loss only thins the feedback the packet core
            # smooths over anyway (documented divergence, DESIGN.md).

    def _update_watchdog(
        self, now: float, dt: float, state: _PathState, cap: float
    ) -> None:
        pid = state.link.path_id
        dark = state.feedback_dark or cap <= 0.0
        state.ctrl.frozen = state.feedback_dark
        if dark:
            state.silence += dt
            if state.silence > WATCHDOG_DEGRADE_TIMEOUT:
                if not state.degraded:
                    state.degraded = True
                    self.metrics.record_path_event(now, pid, "degraded")
                state.ctrl.decay(
                    dt, WATCHDOG_RATE_DECAY_FACTOR, WATCHDOG_RATE_DECAY_INTERVAL
                )
            if state.silence > WATCHDOG_SILENCE_TIMEOUT and not state.disabled:
                state.disabled = True
                self.metrics.record_path_event(now, pid, "disabled")
        elif state.silence > 0.0:
            state.silence = 0.0
            if state.degraded:
                state.degraded = False
                self.metrics.record_path_event(now, pid, "restored")
            if state.disabled:
                state.disabled = False
                self.metrics.record_path_event(now, pid, "enabled")

    # -- scheduling --------------------------------------------------------

    def _schedulable(self) -> List[int]:
        usable = [
            pid
            for pid, state in self._paths.items()
            if not state.draining and not state.disabled
        ]
        if not usable:
            usable = [
                pid for pid, state in self._paths.items() if not state.draining
            ]
        if not usable:
            usable = list(self._paths)
        return sorted(usable)

    def _cm_weights(self, now: float, usable: List[int]) -> Dict[int, float]:
        states = self._paths
        if now < self._cm_reconnect_until:
            return {}
        active = states.get(self._pinned_path)
        failed = (
            active is None
            or self._pinned_path not in usable
            or active.silence > _CM_FAILURE_TIMEOUT
        )
        if failed:
            candidates = [pid for pid in usable if pid != self._pinned_path]
            if candidates:
                self._pinned_path = min(
                    candidates, key=lambda pid: states[pid].silence
                )
                self._cm_reconnect_until = now + _CM_RECONNECT_DELAY
                return {}
            if active is None:
                self._pinned_path = min(states)
        return {self._pinned_path: 1.0}

    # -- main loop ---------------------------------------------------------

    def run(self) -> CallResult:
        """Advance the call one frame interval at a time.

        This loop is the scalar statement of the flow model; the array
        program in :mod:`repro.flow.batch` is the other one, for
        default-config Converge only, and the two are held together by
        byte-equality at runtime
        (``tests/test_flow_batch.py``, ``tests/test_fleet_properties.py``)
        and by the digest fixture of ``tests/test_golden_determinism.py``.
        Everything the packet core amortizes over thousands of events
        happens here ~30 times per simulated second, so the whole
        per-step pipeline is written out in the loop body: the
        scheduler split writes per-state weight slots instead of
        building dicts, and the link's loss draw and fluid queue (the
        math of :meth:`FlowLink.step_loss` / :meth:`FlowLink.push`),
        FEC sizing, the frame outcome and the controller step (regimes
        and constants: :mod:`repro.flow.frames`,
        :mod:`repro.flow.rate_control`) run without a call per path.
        The encode, split and finish stages iterate the streams, so
        one loop serves any stream count.  Per-step capacity comes from
        the links' precomputed tables (:meth:`FlowLink.precompute`);
        fault windows are re-applied only at a window edge or a churn
        edit of the path set, the path lists are rebuilt only at the
        latter, and the watchdog runs only while a path is dark (the
        per-step budget, DESIGN.md §10).

        The RNG draw order is part of the model (the cross-validation
        calibration and the array program replay it): per step, the
        size jitter of each stream in stream order; then per sending
        path the burst, media-loss, FEC-loss, retransmission, kill and
        overuse draws; then one kill-share draw per stream for each
        burst-killed path that carried its bytes, in send order.
        """
        config = self.config
        metrics = self.metrics
        rng = self._rng
        rng_random = rng.random
        paths = self._paths
        stream_states = self._stream_states
        stream_rows = list(enumerate(stream_states))
        system = config.system
        dt = self._step_dt
        steps = self._total_steps
        sample_every = max(int(round(SAMPLE_INTERVAL / dt)), 1)
        mtu = DEFAULT_MTU_PAYLOAD
        enc = config.encoder_template
        rd_model = enc.rd_model
        rd_anchor = rd_model.anchor_bitrate
        rd_qp_anchor = rd_model.qp_anchor
        rd_qp_slope = rd_model.qp_slope
        rd_qp_min = rd_model.qp_min
        rd_qp_max = rd_model.qp_max
        enc_min = enc.min_bitrate
        enc_cap = enc.max_bitrate
        gop_length = enc.gop_length
        key_mult = KEYFRAME_SIZE_MULTIPLIER
        size_jitter = enc.size_jitter
        # rng.uniform(-j, j), precomputed: CPython's uniform(a, b) is
        # a + (b - a) * random(), reproduced term for term.
        jit_lo = -size_jitter
        jit_span = size_jitter - jit_lo
        frame_rate = config.frame_rate
        encoder_utilization = config.encoder_utilization
        num_streams = config.num_streams
        max_latency = config.receiver.max_playout_latency
        decay_factor = WATCHDOG_RATE_DECAY_FACTOR
        decay_interval = WATCHDOG_RATE_DECAY_INTERVAL
        qoe_feedback = config.qoe_feedback_enabled
        peak_decay = math.exp(-dt / _LOSS_PEAK_TAU)
        win_alpha = 1.0 - math.exp(-dt / DELIVERED_WINDOW)
        fec_mode = config.fec_mode
        fec_none = fec_mode is FecMode.NONE
        fec_webrtc = fec_mode is FecMode.WEBRTC_TABLE
        is_converge = system is SystemKind.CONVERGE
        is_webrtc = system is SystemKind.WEBRTC
        is_srtt = system is SystemKind.SRTT
        is_cm = system is SystemKind.WEBRTC_CM
        is_mrtp = system is SystemKind.MRTP
        probe_run_bits_f = float(PROBE_RUN_BITS)
        log = math.log
        exp = math.exp
        expm1 = math.expm1
        inf = math.inf
        neg_inf = -math.inf
        # Controller constants, precomputed for the controller step.
        growth_dt = GROWTH_PER_SECOND**dt
        near_lo = 1.0 - NEAR_CONVERGENCE_WINDOW
        near_hi = 1.0 + NEAR_CONVERGENCE_WINDOW
        half_mtu_bits = 0.5 * _MTU_BITS
        gcc_min = float(config.gcc.min_rate)
        gcc_max = float(config.gcc.max_rate)
        # Direct series appends: `now` is monotone by construction, so
        # TimeSeries.append's ordering check is skipped.
        ifd_times = metrics.ifd_series.times
        ifd_values = metrics.ifd_series.values
        fcd_times = metrics.fcd_series.times
        fcd_values = metrics.fcd_series.values
        rendered_append = metrics.rendered.append
        drop_frame = self._drop_frame
        record_drop = metrics.record_frame_drop
        plan = self._fault_plan
        events = plan.events if plan is not None else []
        have_faults = bool(events)
        have_churn = plan is not None and bool(plan.churn)
        # The fault windows open on a step change only where ``now``
        # passes a window's start or end, so _apply_faults runs at those
        # edges (and at step 0, and when churn edits the path set).
        fault_edges = sorted(
            {e.start for e in events} | {e.end for e in events}
        ) + [inf]
        next_fault_edge = 0.0 if have_faults else inf
        path_items = sorted(paths.items())
        # Parallel row list for the first pass: (state, step_caps)
        # saves two attribute loads per path per step.  Rebuilt with
        # path_items whenever churn edits the path set.
        pass_rows = [(s, s.link.step_caps) for _p, s in path_items]
        send_items: List[Tuple[int, _PathState]]
        # Reusable one-element send lists for the single-path systems;
        # the WebRTC pin is resolved once when churn can't move it.
        webrtc_items: List[Tuple[int, _PathState]] = []
        if is_webrtc and not have_churn:
            pinned = self._pinned_path
            if pinned not in paths:
                pinned = self._pinned_path = min(paths)
            webrtc_items = [(pinned, paths[pinned])]
        elif is_webrtc:
            webrtc_items = [path_items[0]]
        srtt_items: List[Tuple[int, _PathState]] = (
            [path_items[0]] if is_srtt else []
        )
        qp = 0.0
        sample_tick = 0
        fec_received_total = self._fec_received
        fec_recovered_total = self._fec_recovered
        next_probe = self._next_probe
        protection = self._protection

        for step in range(steps):
            now = step * dt
            if have_churn:
                edits = self._path_edits
                self._apply_churn(now)
                self._finish_drains(now)
                if self._path_edits != edits:
                    path_items = sorted(paths.items())
                    pass_rows = [(s, s.link.step_caps) for _p, s in path_items]
                    # A born path takes the fault windows open on it.
                    next_fault_edge = now
            if now >= next_fault_edge:
                self._apply_faults(now)
                next_fault_edge = fault_edges[bisect_right(fault_edges, now)]

            # Capacity, watchdog and target rate for every path in one
            # pass.  The watchdog body only matters while a path is (or
            # was just) dark, so a healthy path skips the call.
            flagged = False
            for state, caps in pass_rows:
                if have_faults and state.link.capacity_cap is not None:
                    cap = state.link.capacity(now)
                else:
                    cap = caps[step]
                state.cap = cap
                if state.silence != 0.0 or cap <= 0.0 or state.feedback_dark:
                    self._update_watchdog(now, dt, state, cap)
                # The per-path sending rate S_i: the lower of the
                # delay-based and loss-based rates, floored.
                ctrl = state.ctrl
                tgt = ctrl.rate
                lr = ctrl.loss_rate
                if lr < tgt:
                    tgt = lr
                if tgt < gcc_min:
                    tgt = gcc_min
                state.tgt = tgt
                if state.draining or state.disabled:
                    flagged = True

            if flagged:
                usable_items = [
                    (pid, paths[pid]) for pid in self._schedulable()
                ]
            else:
                usable_items = path_items

            # Scheduler split (the former _split_weights, specialized):
            # weights live in per-state slots, the common systems reuse
            # cached path lists, and each branch also resets the
            # per-step scratch slots and accumulates the target rate so
            # the send set is walked exactly once.
            if is_webrtc:
                if have_churn:
                    pinned = self._pinned_path
                    if pinned not in paths:
                        pinned = self._pinned_path = min(paths)
                    pstate = paths[pinned]
                    webrtc_items[0] = (pinned, pstate)
                else:
                    pstate = webrtc_items[0][1]
                pstate.weight = 1.0
                send_items = webrtc_items
                total_weight = 1.0
                target_rate = pstate.tgt
                pstate.step_bytes = 0
                pstate.step_packets = 0
                pstate.step_key = False
                pstate.stepped = True
            elif is_srtt:
                best_item = usable_items[0]
                for item in usable_items:
                    if item[1].ctrl.srtt < best_item[1].ctrl.srtt:
                        best_item = item
                bstate = best_item[1]
                bstate.weight = 1.0
                srtt_items[0] = best_item
                send_items = srtt_items
                total_weight = 1.0
                target_rate = bstate.tgt
                bstate.step_bytes = 0
                bstate.step_packets = 0
                bstate.step_key = False
                bstate.stepped = True
            elif is_cm:
                cm_weights = self._cm_weights(
                    now, [pid for pid, _ in usable_items]
                )
                send_items = []
                total_weight = 0.0
                target_rate = 0.0
                for pid in sorted(cm_weights):
                    weight = cm_weights[pid]
                    if weight > 0.0:
                        state = paths[pid]
                        state.weight = weight
                        send_items.append((pid, state))
                        total_weight += weight
                        target_rate += state.tgt
                        state.step_bytes = 0
                        state.step_packets = 0
                        state.step_key = False
                        state.stepped = True
            elif is_mrtp:
                # MPRTP: loss-discounted even split over *all* paths —
                # it never disables a path however badly it performs.
                # The discount floor (5%) keeps every weight positive.
                every = path_items
                if flagged:
                    every = [
                        item for item in path_items if not item[1].draining
                    ] or path_items
                total_weight = 0.0
                target_rate = 0.0
                for pid, state in every:
                    le = state.loss_ewma
                    weight = 1.0 - (le if le < 0.95 else 0.95)
                    state.weight = weight
                    total_weight += weight
                    target_rate += state.tgt
                    state.step_bytes = 0
                    state.step_packets = 0
                    state.step_key = False
                    state.stepped = True
                send_items = every
            else:
                # CONVERGE / MTPUT: Eq. 1 — split by per-path rates.
                # The target is floored at min_rate, so weights are
                # positive whenever the configured floor is; the rare
                # filter below keeps a zero-floor config
                # byte-compatible.
                total_weight = 0.0
                target_rate = 0.0
                zero_weight = False
                for pid, state in usable_items:
                    weight = state.tgt
                    state.weight = weight
                    total_weight += weight
                    target_rate += weight
                    if weight <= 0.0:
                        zero_weight = True
                    state.step_bytes = 0
                    state.step_packets = 0
                    state.step_key = False
                    state.stepped = True
                send_items = usable_items
                if zero_weight:
                    send_items = []
                    target_rate = 0.0
                    for item in usable_items:
                        state = item[1]
                        if state.weight > 0.0:
                            send_items.append(item)
                            target_rate += state.tgt
                        else:
                            state.stepped = False

            send_n = len(send_items)

            if sample_tick == 0:
                metrics.record_target_rate(now, target_rate)
                for pid, state in path_items:
                    metrics.record_path_rate(now, pid, state.tgt)
                self._sample_receive_rate(now)
            sample_tick += 1
            if sample_tick == sample_every:
                sample_tick = 0

            for stream in stream_states:
                if stream.blocked and now >= stream.request_at:
                    self._issue_keyframe_requests(now)
                    break

            # Encode one frame per stream and split it over the send
            # set.  A step that sends nothing (WebRTC-CM's reconnect
            # window) encodes nothing: no frame id is consumed.
            encoded = False
            if send_n and total_weight > 0.0:
                encoded = True
                budget = (
                    target_rate
                    * encoder_utilization
                    / (1.0 + protection)
                )
                per_stream = budget / num_streams
                if per_stream < enc_min:
                    per_stream = enc_min
                if per_stream > enc_cap:
                    per_stream = enc_cap
                # rd_model.qp_for_bitrate, inlined (log-linear RD).
                qp = rd_qp_anchor - rd_qp_slope * log(
                    (per_stream if per_stream > 1.0 else 1.0) / rd_anchor
                )
                if qp < rd_qp_min:
                    qp = rd_qp_min
                elif qp > rd_qp_max:
                    qp = rd_qp_max
                base = per_stream / 8.0 / frame_rate
                for stream in stream_states:
                    # A keyframe costs key_mult base frames; the excess
                    # is a debt the following delta frames repay.
                    is_key = (
                        stream.frame_id == 0
                        or stream.frames_since_key >= gop_length
                        or stream.pending_keyframe
                    )
                    if is_key:
                        size_f = base * key_mult
                        stream.debt += size_f - base
                        stream.frames_since_key = 0
                        stream.pending_keyframe = False
                    else:
                        repay = _KEYFRAME_DEBT_REPAY * base
                        debt = stream.debt
                        if debt < repay:
                            repay = debt
                        size_f = base - repay
                        stream.debt = debt - repay
                        stream.frames_since_key += 1
                    size_f *= 1.0 + (jit_lo + jit_span * rng_random())
                    size = int(size_f)
                    if size < _MIN_FRAME_BYTES:
                        size = _MIN_FRAME_BYTES
                    # The per-frame encoder ledger (metrics.encoded) is
                    # not filled at flow fidelity: nothing downstream
                    # reads it, and the rendered record carries
                    # size/qp/keyframe directly (see DESIGN.md,
                    # flow-fidelity divergences).
                    stream.size = size
                    stream.is_key = is_key
                    if send_n == 1:
                        state = send_items[0][1]
                        stream.alloc = ((state, size),)
                        state.step_bytes += size
                        state.step_packets += -(-size // mtu)
                        if is_key:
                            state.step_key = True
                    elif send_n == 2 and not (is_key and is_converge):
                        # Two-path proportional split.
                        s0 = send_items[0][1]
                        s1 = send_items[1][1]
                        share = int(size * s0.weight / total_weight)
                        rest = size - share
                        stream.alloc = ((s0, share), (s1, rest))
                        if share > 0:
                            s0.step_bytes += share
                            s0.step_packets += -(-share // mtu)
                            if is_key:
                                s0.step_key = True
                        if rest > 0:
                            s1.step_bytes += rest
                            s1.step_packets += -(-rest // mtu)
                            if is_key:
                                s1.step_key = True
                    else:
                        allocation = self._allocate(
                            size,
                            is_key,
                            {p: s.weight for p, s in send_items},
                            total_weight,
                            [p for p, _ in send_items],
                        )
                        stream.alloc = [
                            (s, allocation.get(p, 0)) for p, s in send_items
                        ]
                        for state, path_bytes in stream.alloc:
                            if path_bytes <= 0:
                                continue
                            state.step_bytes += path_bytes
                            state.step_packets += -(-path_bytes // mtu)
                            if is_key:
                                state.step_key = True

            probe_due = now >= next_probe
            if probe_due:
                next_probe += _PROBE_INTERVAL
            if have_churn and self._reroute_probe:
                # _remove_path is the only setter, and only churn
                # removes paths mid-call.
                probe_due = True
                self._reroute_probe = False

            # Push each sending path's aggregate bytes through queue +
            # loss and advance its controller.  Results land in the
            # per-state out_* slots the finish stage consumes.
            step_media = 0
            step_fec = 0
            for _pid, state in send_items:
                link = state.link
                ctrl = state.ctrl
                cap = state.cap
                media_bytes = state.step_bytes
                media_packets = state.step_packets

                # -- loss draw (FlowLink.step_loss, inlined) --
                n_pkts = media_packets if media_packets > 0 else 1
                scheduled = link._scheduled
                burst_loss = link._burst_loss
                if scheduled is not None:
                    frame_loss = scheduled.rate_at(now)
                    peak_loss = frame_loss
                elif burst_loss > 0.0:
                    frame_loss = link._base_loss
                    peak_loss = frame_loss
                    # P(the chain enters the bad state among n packets).
                    p_burst = -expm1(link._log_stay_good * n_pkts)
                    if rng_random() < p_burst:
                        # The burst covers its expected dwell within
                        # the frame.
                        fraction = link._burst_packets / n_pkts
                        if fraction > 1.0:
                            fraction = 1.0
                        frame_loss = frame_loss + (
                            burst_loss - frame_loss
                        ) * fraction
                        peak_loss = burst_loss
                else:
                    frame_loss = link._base_loss
                    peak_loss = frame_loss
                if have_faults:
                    override = link.loss_override
                    if override is not None:
                        if override > frame_loss:
                            frame_loss = override
                        if override > peak_loss:
                            peak_loss = override
                if cap <= 0.0:
                    frame_loss = 1.0
                    peak_loss = 1.0
                loss_ewma = state.loss_ewma
                loss_ewma += _LOSS_SMOOTHING * (frame_loss - loss_ewma)
                state.loss_ewma = loss_ewma
                decayed = state.loss_peak * peak_decay
                loss_peak = decayed if decayed > frame_loss else frame_loss
                state.loss_peak = loss_peak

                # -- FEC packets to send alongside the media --
                if media_packets <= 0 or fec_none:
                    fec_packets = 0
                elif fec_webrtc:
                    # The WebRTC loss-rate table with fractional carry.
                    pf = webrtc_protection_factor(loss_ewma, state.step_key)
                    fec = state.fec
                    exact = pf * media_packets + fec._carry
                    fec_packets = int(exact)
                    carry = exact - fec_packets
                    if carry < 0.0:
                        carry = 0.0
                    elif carry > 1.0:
                        carry = 1.0
                    fec._carry = carry
                    if fec_packets > media_packets:
                        fec_packets = media_packets
                else:
                    # FecMode.CONVERGE: loss-proportional + QoE beta.
                    fec = state.fec
                    if loss_peak < _MIN_LOSS_FOR_FEC:
                        fec._carry = 0.0
                        fec_packets = 0
                    else:
                        elapsed = now - fec._last_update
                        if elapsed > 0.0:
                            fec.beta = 1.0 + (fec.beta - 1.0) * exp(
                                -_BETA_DECAY * elapsed
                            )
                            fec._last_update = now
                        prot = loss_peak
                        if prot > _MAX_PROTECTED_LOSS:
                            prot = _MAX_PROTECTED_LOSS
                        prot *= fec.beta
                        if prot > _MAX_PROTECTION:
                            prot = _MAX_PROTECTION
                        exact = prot * media_packets + fec._carry
                        fec_packets = int(exact)
                        if fec_packets == 0 and exact >= _ROUND_UP_THRESHOLD:
                            fec_packets = 1
                        carry = exact - fec_packets
                        if carry < 0.0:
                            carry = 0.0
                        elif carry > 1.0:
                            carry = 1.0
                        fec._carry = carry
                        if fec_packets > media_packets:
                            fec_packets = media_packets
                fec_bytes = fec_packets * mtu

                # -- fluid queue (FlowLink.push, inlined) --
                backlog = link.backlog_bytes - cap * dt / 8.0
                if backlog < 0.0:
                    backlog = 0.0
                backlog += media_bytes + fec_bytes
                if have_faults and link.queue_cap_override is not None:
                    cap_bytes = float(link.queue_cap_override)
                else:
                    cap_bytes = link._queue_capacity
                overflow = backlog - cap_bytes
                if overflow > 0.0:
                    backlog = cap_bytes
                    overflow_packets = int(overflow // mtu)
                else:
                    overflow_packets = 0
                link.backlog_bytes = backlog
                if cap <= 0.0:
                    queue_delay = inf if backlog > 0.0 else 0.0
                else:
                    queue_delay = backlog * 8.0 / cap

                # -- the frame's fate on this path (steps 1-3 of
                # repro.flow.frames, binomial_draw inlined; the draw
                # order and skip conditions are the calibration
                # contract) --
                p = frame_loss
                if media_packets <= 0 or p <= 0.0:
                    lost_media = 0
                elif p >= 1.0:
                    lost_media = media_packets
                else:
                    u = rng_random()
                    q = 1.0 - p
                    ratio = p / q
                    prob = q**media_packets
                    cumulative = prob
                    k = 0
                    while cumulative < u and k < media_packets:
                        k += 1
                        prob *= ratio * (media_packets - k + 1) / k
                        cumulative += prob
                    lost_media = k
                lost_media += overflow_packets
                if lost_media > media_packets:
                    lost_media = media_packets
                if fec_packets <= 0 or p <= 0.0:
                    fec_received = fec_packets
                elif p >= 1.0:
                    fec_received = 0
                else:
                    u = rng_random()
                    q = 1.0 - p
                    ratio = p / q
                    prob = q**fec_packets
                    cumulative = prob
                    k = 0
                    while cumulative < u and k < fec_packets:
                        k += 1
                        prob *= ratio * (fec_packets - k + 1) / k
                        cumulative += prob
                    fec_received = fec_packets - k
                if lost_media == 0:
                    delivered = True
                    rtx_rounds = 0
                    fec_recovered = 0
                else:
                    fec_recovered = (
                        lost_media
                        if lost_media < fec_received
                        else fec_received
                    )
                    remaining = lost_media - fec_recovered
                    if remaining == 0:
                        delivered = True
                        rtx_rounds = 0
                    else:
                        # RTX rounds are rare: the factored sampler is
                        # cheap enough off the common path.
                        rtx_rounds = 0
                        while remaining > 0 and rtx_rounds < MAX_RTX_ROUNDS:
                            rtx_rounds += 1
                            remaining = binomial_draw(rng, remaining, p)
                        delivered = remaining == 0
                if cap <= 0.0:
                    delivered = False
                # Consecutive burst losses defeat FEC and
                # retransmission both; the binomial outcome above
                # models *independent* loss, so the burst's
                # run-of-losses character is restored with an explicit
                # kill draw scaled by the burst's frame coverage.
                killed = False
                if (
                    cap > 0.0
                    and media_packets > 0
                    and peak_loss >= BURST_LOSS_FLOOR
                ):
                    kill_p = _BURST_KILL_FACTOR * frame_loss
                    if kill_p > _BURST_KILL_MAX:
                        kill_p = _BURST_KILL_MAX
                    if rng_random() < kill_p:
                        killed = True
                        delivered = False

                record = state.record
                record.media_packets += media_packets
                record.media_bytes += media_bytes
                if media_bytes > 0:
                    state.last_media_time = now
                record.fec_packets += fec_packets
                record.fec_bytes += fec_bytes
                fec_received_total += fec_received
                fec_recovered_total += fec_recovered
                uncovered = lost_media - fec_recovered
                if uncovered > 0:
                    record.rtx_packets += uncovered
                    record.rtx_bytes += uncovered * mtu
                    if qoe_feedback:
                        state.fec.on_uncovered_loss(
                            now, uncovered, media_packets
                        )

                extra = link.extra_delay if have_faults else 0.0
                prop = link.propagation_delay
                srtt_sample = 2.0 * (prop + extra) + (
                    queue_delay if queue_delay < 2.0 else 2.0
                )
                sent = media_bytes + fec_bytes
                offered = sent * 8.0 / dt
                delivered_bytes = media_bytes
                if not delivered:
                    delivered_bytes = media_bytes - uncovered * mtu
                    if delivered_bytes < 0:
                        delivered_bytes = 0
                acked = delivered_bytes + fec_bytes
                delivered_rate = (acked if acked < sent else sent) * 8.0 / dt

                probe_bits = 0.0
                if (
                    cap > 0.0
                    and not state.degraded
                    and not state.feedback_dark
                    and loss_ewma <= _PROBE_MAX_LOSS
                    and queue_delay <= _PROBE_MAX_QUEUE_DELAY
                ):
                    if probe_due:
                        probe_bits = probe_run_bits_f
                    elif (
                        ctrl.rate >= _FRAME_PROBE_MIN_RATE
                        and media_packets + fec_packets
                        >= _FRAME_PROBE_MIN_PACKETS
                    ):
                        # Fast-pacing regime: this frame's own packet
                        # burst doubles as a capacity probe.
                        probe_bits = (
                            (media_packets + fec_packets - 1) * mtu * 8.0
                        )

                # -- controller step: fold the frame's samples, then
                # the regimes of repro.flow.rate_control.  In outage
                # the samples are folded but the rate logic does not
                # run (the watchdog owns the rate then); a frozen
                # controller neither grows nor cuts --
                srtt = ctrl.srtt
                srtt += RTT_SMOOTHING * (srtt_sample - srtt)
                ctrl.srtt = srtt
                offered_avg = ctrl.offered_avg
                if offered_avg <= 0.0:
                    offered_avg = offered
                else:
                    offered_avg += win_alpha * (offered - offered_avg)
                ctrl.offered_avg = offered_avg
                delivered_avg = ctrl.delivered
                if delivered_avg <= 0.0:
                    delivered_avg = delivered_rate
                else:
                    delivered_avg += win_alpha * (
                        delivered_rate - delivered_avg
                    )
                ctrl.delivered = delivered_avg
                if cap > 0.0 and not ctrl.frozen:
                    rate = ctrl.rate
                    burst = peak_loss >= BURST_LOSS_FLOOR
                    if queue_delay > OVERUSE_QUEUE_DELAY or (
                        burst and rng_random() < BURST_OVERUSE_PROBABILITY
                    ):
                        cut_base = (
                            delivered_avg if delivered_avg > 0.0 else rate
                        )
                        cut = BACKOFF_FACTOR * cut_base
                        if cut < rate:
                            rate = cut
                        ctrl._capacity_estimate = (
                            delivered_avg if delivered_avg > 0.0 else rate
                        )
                        ctrl._hold_until = now + HOLD_SECONDS
                    elif now >= ctrl._hold_until:
                        saturated = offered_avg >= 0.7 * rate
                        estimate = ctrl._capacity_estimate
                        if (
                            estimate is not None
                            and near_lo * estimate
                            <= delivered_avg
                            <= near_hi * estimate
                        ):
                            # Additive: about one MTU per response time.
                            denom = srtt + 0.1
                            if denom < 1e-3:
                                denom = 1e-3
                            rate += half_mtu_bits / denom * dt
                        elif saturated:
                            rate *= growth_dt
                        if saturated and delivered_avg > 0.0:
                            rate_cap = 1.5 * delivered_avg + 10_000.0
                            if rate > rate_cap:
                                rate = rate_cap
                        if probe_bits > 0.0:
                            # PROBE_BWE: the burst's arrival rate,
                            # smeared by per-packet jitter on top of
                            # serialization time.
                            estimate_bps = probe_bits / (
                                PROBE_JITTER_SPAN + probe_bits / cap
                            )
                            if estimate_bps > 1.5 * rate:
                                jump = 0.85 * estimate_bps
                                limit = 4.0 * rate
                                rate = jump if jump < limit else limit
                                if ctrl.loss_rate < rate:
                                    ctrl.loss_rate = rate
                    # Loss-based branch, at RTCP report cadence.
                    accum = ctrl._loss_report_accum + dt
                    loss_rate = ctrl.loss_rate
                    while accum >= LOSS_REPORT_INTERVAL:
                        accum -= LOSS_REPORT_INTERVAL
                        fraction = frame_loss
                        if burst and frame_loss <= LOSS_CUT_THRESHOLD:
                            report_packets = (
                                offered * LOSS_REPORT_INTERVAL / _MTU_BITS
                            )
                            if report_packets < 1.0:
                                report_packets = 1.0
                            diluted = (
                                BURST_EXPECTED_LOSSES / report_packets
                            )
                            fraction = (
                                peak_loss
                                if peak_loss <= diluted
                                else diluted
                            )
                        if fraction > LOSS_CUT_THRESHOLD:
                            loss_rate *= 1.0 - 0.5 * fraction
                        elif fraction < LOSS_PROBE_THRESHOLD:
                            loss_rate *= 1.05
                    ctrl._loss_report_accum = accum
                    loss_cap = 2.0 * rate
                    if loss_rate > loss_cap:
                        loss_rate = loss_cap
                    elif loss_rate < gcc_min:
                        loss_rate = gcc_min
                    ctrl.loss_rate = loss_rate
                    if rate < gcc_min:
                        rate = gcc_min
                    elif rate > gcc_max:
                        rate = gcc_max
                    ctrl.rate = rate

                completion = (
                    (queue_delay if queue_delay < 4.0 else 4.0)
                    + prop
                    + extra
                    + rtx_rounds * srtt
                )
                state.out_delivered = delivered
                state.out_completion = completion
                state.out_killed = killed
                step_media += media_bytes
                step_fec += fec_bytes

            # Idle paths still age their queues and rate state.
            for pid, state in path_items:
                if state.stepped:
                    state.stepped = False
                    continue
                cap = state.cap
                if state.link.backlog_bytes > 0.0:
                    state.link.push(dt, cap, 0.0)
                if cap <= 0.0 and not state.feedback_dark:
                    state.ctrl.decay(dt, decay_factor, decay_interval)

            # Track how much of the send budget FEC actually consumed
            # so the next frame's encoder budget discounts it — the
            # packet sender does the same through its bitrate
            # allocator (media = target / (1 + protection)).
            if step_media > 0:
                instant = step_fec / step_media
                protection += _PROTECTION_SMOOTHING * (
                    instant - protection
                )

            if not encoded:
                continue
            # Decide render or drop for each stream's frame from the
            # out_* slots of the paths that carried its bytes.
            for ssrc, stream in stream_rows:
                frame_id = stream.frame_id
                stream.frame_id = frame_id + 1
                size = stream.size
                completion = 0.0
                any_failed = False
                dropped = False
                for state, sent_bytes in stream.alloc:
                    if sent_bytes <= 0:
                        continue
                    if state.out_killed:
                        # A burst-killed slice defeats recovery for the
                        # packets it covered.  Whether that takes the
                        # whole frame down scales with how much of the
                        # frame rode this path — the packet goldens
                        # lose roughly one frame per call to a burst,
                        # single-path and multipath alike, because a
                        # smaller slice gives the burst fewer packets
                        # to hit.
                        if rng_random() < sent_bytes / size:
                            drop_frame(now, ssrc, frame_id, "lost")
                            dropped = True
                            break
                        any_failed = True
                        continue
                    path_completion = state.out_completion
                    if path_completion > completion:
                        completion = path_completion
                    if not state.out_delivered:
                        any_failed = True
                if dropped:
                    continue
                if any_failed:
                    # Survivors: every sending path that delivered
                    # (a failed path never reads as delivered).
                    best_state: Optional[_PathState] = None
                    best_completion = inf
                    for _pid, state in send_items:
                        if (
                            state.out_delivered
                            and state.out_completion < best_completion
                        ):
                            best_state = state
                            best_completion = state.out_completion
                    if best_state is None:
                        drop_frame(now, ssrc, frame_id, "lost")
                        continue
                    # Salvage: the failed share rides the best survivor
                    # as priority retransmissions, one extra RTT there.
                    salvage = best_completion + best_state.ctrl.srtt
                    if salvage > completion:
                        completion = salvage
                if completion > max_latency:
                    drop_frame(now, ssrc, frame_id, "late")
                    continue
                is_key = stream.is_key
                if stream.blocked and not is_key:
                    # Soft drop: a casualty of the outage already on
                    # the recovery clock (tens of frames per outage).
                    record_drop(now, ssrc, frame_id, "decode-gap")
                    continue
                render_time = now + completion
                self._received_total += size
                self._window_bytes += size
                self._received_window.append((now, size))
                stream.blocked = False
                # Positional, in RenderedFrame's field order (ssrc,
                # frame_id, capture_time, render_time, size_bytes,
                # is_keyframe, fec_recovered, qp).  fec_recovered is
                # False: per-frame recovery attribution is a
                # packet-level notion; aggregate FEC stats are
                # reported via record_fec_stats.
                rendered_append(
                    RenderedFrame(
                        ssrc, frame_id, now, render_time, size, is_key,
                        False, qp,
                    )
                )
                last_render = stream.last_render
                if last_render > neg_inf:
                    ifd_times.append(now)
                    ifd_values.append(render_time - last_render)
                stream.last_render = render_time
                fcd_times.append(now)
                fcd_values.append(completion)

        self._fec_received = fec_received_total
        self._fec_recovered = fec_recovered_total
        self._next_probe = next_probe
        self._protection = protection
        return self._finalize()

    # -- per-step helpers --------------------------------------------------

    def _allocate(
        self,
        size: int,
        is_key: bool,
        weights: Dict[int, float],
        total_weight: float,
        send_paths: List[int],
    ) -> Dict[int, int]:
        """Split one frame's bytes across paths, conserving every byte."""
        if is_key and self.config.system is SystemKind.CONVERGE:
            # Frame-level control (Algorithm 1): keyframes ride the
            # path with the shortest completion time, not the split.
            best = min(
                send_paths,
                key=lambda pid: self._paths[pid].ctrl.srtt
                + self._paths[pid].link.queue_delay(
                    max(self._paths[pid].tgt, 1.0)
                ),
            )
            return {best: size}
        allocation: Dict[int, int] = {}
        assigned = 0
        for pid in send_paths[:-1]:
            share = int(size * weights[pid] / total_weight)
            allocation[pid] = share
            assigned += share
        allocation[send_paths[-1]] = size - assigned
        return allocation

    def _drop_frame(
        self, now: float, ssrc: int, frame_id: int, reason: str
    ) -> None:
        """A hard drop: the frame is lost or late, the decode chain breaks.

        It (re-)arms the recovery clock: the receiver burns through
        NACK retries and the abandon deadline before asking for a
        keyframe.  The decode-gap drops that follow are downstream
        casualties of an outage already on the clock; the loop records
        them without coming here.
        """
        stream = self._stream_states[ssrc]
        self.metrics.record_frame_drop(now, ssrc, frame_id, reason)
        if not stream.blocked or stream.request_at == math.inf:
            stream.request_at = now + _KEYFRAME_RECOVERY_DELAY
        stream.blocked = True

    def _issue_keyframe_requests(self, now: float) -> None:
        """Fire due keyframe requests, honouring the PLI throttle."""
        for ssrc, stream in enumerate(self._stream_states):
            if not stream.blocked or now < stream.request_at:
                continue
            if now - stream.last_request < KEYFRAME_REQUEST_MIN_INTERVAL:
                continue  # throttled: retry once the interval expires
            stream.last_request = now
            stream.request_at = math.inf
            stream.pending_keyframe = True
            self.metrics.record_keyframe_request(now, ssrc)

    def _sample_receive_rate(self, now: float) -> None:
        window = self._received_window
        cutoff = now - 1.0
        drop = 0
        removed = 0
        for time, size in window:
            if time >= cutoff:
                break
            drop += 1
            removed += size
        if drop:
            del window[:drop]
            self._window_bytes -= removed
        self.metrics.receive_rate_series.append(
            now, self._window_bytes * 8 / 1.0
        )

    # -- finish ------------------------------------------------------------

    def _finalize(self) -> CallResult:
        metrics = self.metrics
        for pid, state in self._paths.items():
            metrics.path_sends.setdefault(pid, state.record)
        metrics.received_media_bytes = self._received_total
        metrics.record_fec_stats(self._fec_received, self._fec_recovered)
        summary = summarize(
            metrics,
            duration=self.config.duration,
            num_streams=self.config.num_streams,
            frame_rate=self.config.frame_rate,
            rd_model=self.config.encoder_template.rd_model,
        )
        return CallResult(
            config=self.config, summary=summary, metrics=metrics
        )


def refuse_unmodelled(config: CallConfig) -> None:
    """Raise ``ValueError`` naming a setting the flow model does not read.

    The flow loop has no NACK switch, and of the receiver settings it
    reads the playout deadline alone: a call that sets anything else
    would run as a silent copy of the default call.  The scalar loop
    and the array program's template config both check here.
    """
    if not config.nack_enabled:
        raise ValueError("flow fidelity does not model nack_enabled=False")
    modelled = ReceiverConfig(
        max_playout_latency=config.receiver.max_playout_latency
    )
    for spec in dataclasses.fields(ReceiverConfig):
        if getattr(config.receiver, spec.name) != getattr(modelled, spec.name):
            raise ValueError(
                f"flow fidelity does not model receiver.{spec.name}; "
                "run the cell at packet fidelity"
            )


def run_flow_call(
    config: CallConfig,
    path_configs: Sequence[PathConfig],
    fault_plan: Optional[FaultPlan] = None,
    churn_scenario: Optional[str] = None,
) -> CallResult:
    """Run one flow-fidelity call; drop-in twin of ``run_call``, with
    the cyclic collector paused the same way (:func:`collector_paused`).
    """
    with collector_paused():
        call = FlowCall(
            config,
            path_configs,
            fault_plan=fault_plan,
            churn_scenario=churn_scenario,
        )
        result = call.run()
        del call
    return result
