"""Converge's video QoE feedback generator (§4.2).

Watches the frame construction process: when the InterFrame Delay of a
newly inserted frame exceeds the expected IFD (the inverse of the
frame rate the sender announced over SDES), the generator identifies
the path responsible by counting packets that arrived after the
reference (fastest-finishing) path's packets, and emits feedback
``(path_id, alpha, FCD)`` — negative ``alpha`` shrinks the offending
path's packet budget at the sender (Eq. 2), positive ``alpha`` grows a
path whose packets all arrived early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.receiver.packet_buffer import PacketArrival
from repro.video.decoder import AssembledFrame

# Packets within this slack of the reference arrival do not count as
# late (or as early).
_LATENESS_SLACK = 0.002
# Cap on one positive feedback step (negative steps: max_negative_alpha).
_MAX_POSITIVE_ALPHA = 5


@dataclass
class QoeFeedbackConfig:
    """Sensitivity knobs for the feedback generator."""

    # IFD must exceed ifd_exp by this factor before feedback fires;
    # a small tolerance filters camera-tick jitter.
    ifd_tolerance: float = 1.15
    min_feedback_interval: float = 0.05
    max_negative_alpha: int = 20
    # Negative feedback additionally requires the FCD to exceed its
    # own slow baseline by this fraction of the expected IFD: constant
    # path-RTT skew inflates every frame's FCD equally and is harmless,
    # only *growing* gathering delay signals a deteriorating path.
    fcd_excess_fraction: float = 0.5
    fcd_baseline_gain: float = 0.05


@dataclass
class FeedbackDecision:
    """What the generator decided for one QoE-drop event."""

    path_id: int
    alpha: int
    fcd: float


class QoeFeedbackGenerator:
    """Per-stream feedback logic fed by frame-buffer insertions."""

    def __init__(
        self,
        config: QoeFeedbackConfig | None = None,
        on_feedback: Optional[Callable[[FeedbackDecision], None]] = None,
    ) -> None:
        self.config = config or QoeFeedbackConfig()
        self._on_feedback = on_feedback
        self._ifd_exp = 1.0 / 30.0
        self._last_feedback_time: Optional[float] = None
        self._fcd_baseline: Optional[float] = None
        self.feedback_sent = 0
        self.qoe_drops_detected = 0

    def set_expected_frame_rate(self, frame_rate: float) -> None:
        """Apply the frame rate announced via the SDES message."""
        if frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        self._ifd_exp = 1.0 / frame_rate

    @property
    def expected_ifd(self) -> float:
        return self._ifd_exp

    def on_frame_inserted(
        self,
        frame: AssembledFrame,
        arrivals: Sequence[PacketArrival],
        ifd: Optional[float],
        now: float,
    ) -> Optional[FeedbackDecision]:
        """Evaluate one frame insertion; emit feedback on a QoE drop."""
        fcd = frame.completed_at - frame.first_arrival
        baseline = self._update_fcd_baseline(fcd)
        if ifd is None or ifd <= self._ifd_exp * self.config.ifd_tolerance:
            return None
        self.qoe_drops_detected += 1
        if self._rate_limited(now):
            return None
        fcd_excess = fcd - baseline
        decision = self._decide(frame, arrivals, fcd_excess)
        if decision is None:
            return None
        self._last_feedback_time = now
        self.feedback_sent += 1
        if self._on_feedback is not None:
            self._on_feedback(decision)
        return decision

    # -- internals -----------------------------------------------------------

    def _rate_limited(self, now: float) -> bool:
        return (
            self._last_feedback_time is not None
            and now - self._last_feedback_time
            < self.config.min_feedback_interval
        )

    def _update_fcd_baseline(self, fcd: float) -> float:
        if self._fcd_baseline is None:
            self._fcd_baseline = fcd
        else:
            self._fcd_baseline += self.config.fcd_baseline_gain * (
                fcd - self._fcd_baseline
            )
        return self._fcd_baseline

    def _decide(
        self,
        frame: AssembledFrame,
        arrivals: Sequence[PacketArrival],
        fcd_excess: float,
    ) -> Optional[FeedbackDecision]:
        by_path: Dict[int, List[float]] = {}
        for arrival in arrivals:
            if arrival.path_id < 0 or arrival.fec_recovered:
                continue
            by_path.setdefault(arrival.path_id, []).append(arrival.arrival_time)
        if len(by_path) < 2:
            return None
        fcd = frame.completed_at - frame.first_arrival
        # Reference ("fast") path: the one whose last packet landed
        # earliest — it finished its share of the frame first.
        reference = min(by_path, key=lambda p: max(by_path[p]))
        ref_last = max(by_path[reference])
        slack = _LATENESS_SLACK

        worst_path = None
        worst_late = 0
        best_early_path = None
        best_early = 0
        for path_id, times in by_path.items():
            if path_id == reference:
                continue
            late = sum(1 for t in times if t > ref_last + slack)
            early = sum(1 for t in times if t <= ref_last - slack)
            if late > worst_late:
                worst_late = late
                worst_path = path_id
            if late == 0 and early > best_early:
                best_early = early
                best_early_path = path_id
        fcd_gate = self.config.fcd_excess_fraction * self._ifd_exp
        if worst_path is not None and fcd_excess > fcd_gate:
            alpha = -min(worst_late, self.config.max_negative_alpha)
            return FeedbackDecision(path_id=worst_path, alpha=alpha, fcd=fcd)
        if best_early_path is not None:
            # The QoE drop was not this path's fault and it delivered
            # early: it has headroom, shift packets toward it.
            alpha = min(best_early, _MAX_POSITIVE_ALPHA)
            return FeedbackDecision(path_id=best_early_path, alpha=alpha, fcd=fcd)
        return None
