"""Per-path Google Congestion Control facade.

One instance per network path ("uncoupled" congestion control, §4.1).
The sender feeds it transport-wide feedback (acked packets with send
and arrival times) and receiver reports (fraction lost); it exposes the
per-path sending rate ``S_i``, a smoothed RTT, the measured goodput,
and the per-path loss estimate that the FEC controllers consume.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Deque, List, Tuple

from repro.cc.aimd import USAGE_NORMAL, AimdRateController
from repro.cc.delay_based import OveruseDetector, TrendlineEstimator
from repro.cc.loss_based import LossBasedController

_RATE_WINDOW = 1.0  # seconds of acked bytes for the incoming-rate estimate
_RTT_SMOOTHING = 0.125  # classic SRTT gain
_LOSS_SMOOTHING = 0.3
_STANDING_QUEUE_DELAY = 0.08  # srtt this far above min-RTT forces back-off
_PROBE_MIN_PACKETS = 5  # burst length needed for a capacity estimate
_PROBE_SEND_GAP = 0.0015  # max send spacing within a probe burst
_LOSS_PEAK_TAU = 3.0  # decay constant of the peak-hold loss tracker


@dataclass
class GccConfig:
    """Tunables for one GCC instance."""

    initial_rate: float = 1_000_000.0
    min_rate: float = 100_000.0
    max_rate: float = 30_000_000.0


class GoogleCongestionControl:
    """Combined delay-based and loss-based controller for one path."""

    def __init__(self, path_id: int, config: GccConfig | None = None) -> None:
        self.path_id = path_id
        self.config = config or GccConfig()
        self._trendline = TrendlineEstimator()
        self._detector = OveruseDetector()
        self._aimd = AimdRateController(
            self.config.initial_rate, self.config.min_rate, self.config.max_rate
        )
        self._loss_controller = LossBasedController(
            self.config.initial_rate, self.config.min_rate, self.config.max_rate
        )
        self._acked: Deque[Tuple[float, int]] = deque()  # (arrival, bytes)
        self._sent_acked: Deque[Tuple[float, int]] = deque()  # (send, bytes)
        # Running byte totals of the two windows above (exact — packet
        # sizes are ints), replacing an O(window) sum() per feedback.
        self._acked_bytes = 0
        self._sent_acked_bytes = 0
        self.srtt = 0.1
        self.min_rtt = float("inf")
        self.loss_estimate = 0.0
        self.loss_peak = 0.0
        self._loss_peak_time = -1.0
        self.incoming_rate = 0.0

    # -- inputs ----------------------------------------------------------

    def on_transport_feedback(
        self,
        acked: List[Tuple[float, float, int]],
        lost_count: int,
        now: float,
    ) -> None:
        """Process acked packets: ``(send_time, arrival_time, size_bytes)``.

        ``lost_count`` is the number of packets the feedback reported
        as never received.
        """
        usage = USAGE_NORMAL
        latest_send = None
        trendline = self._trendline
        detect = self._detector.detect
        acked_append = self._acked.append
        sent_append = self._sent_acked.append
        for send_time, arrival_time, size in acked:
            trend = trendline.update(send_time, arrival_time)
            usage = detect(trend, arrival_time, trendline.num_groups)
            acked_append((arrival_time, size))
            self._acked_bytes += size
            sent_append((send_time, size))
            self._sent_acked_bytes += size
            latest_send = send_time
        self._trim_rate_window(now)
        self.incoming_rate = self._compute_incoming_rate(now)
        if latest_send is not None:
            rtt_sample = max(now - latest_send, 1e-4)
            self.srtt += _RTT_SMOOTHING * (rtt_sample - self.srtt)
            self.min_rtt = min(self.min_rtt, rtt_sample)
        self._apply_burst_capacity_estimate(acked)
        # NOTE: a drop-tail queue sitting at capacity is flat and
        # invisible to the trendline (it only sees delay *growth*), so
        # GCC can hold a standing queue with hundreds of ms of delay —
        # WebRTC behaves the same way, and that bufferbloat is exactly
        # the E2E pathology the paper reports for the naive multipath
        # variants (Fig. 14c).  Converge's QoE feedback, not the
        # congestion controller, is what breaks the standing queue.
        offered = self._compute_offered_rate()
        self._aimd.update(
            usage, self.incoming_rate, now, self.srtt, offered_rate=offered
        )
        # Keep the loss-based estimate from drifting arbitrarily above
        # the delay-based one on an idle path (its 5%-per-report probe
        # has no evidence behind it without traffic).
        self._loss_controller.rate = min(
            self._loss_controller.rate, 2.0 * self._aimd.rate
        )

    def on_receiver_report(self, fraction_lost: float, now: float = 0.0) -> None:
        """Process an RTCP receiver report for this path."""
        self._loss_controller.update(fraction_lost)
        self.loss_estimate += _LOSS_SMOOTHING * (
            fraction_lost - self.loss_estimate
        )
        # Peak-hold with decay: bursty (Gilbert-Elliott) loss averages
        # low but arrives concentrated; FEC sized off the smoothed mean
        # cannot cover the bursts, so remember the recent worst case.
        if self._loss_peak_time >= 0:
            elapsed = max(now - self._loss_peak_time, 0.0)
            self.loss_peak *= math.exp(-elapsed / _LOSS_PEAK_TAU)
        self._loss_peak_time = now
        self.loss_peak = max(self.loss_peak, fraction_lost)

    # -- outputs ---------------------------------------------------------

    @property
    def target_rate(self) -> float:
        """The per-path sending rate ``S_i`` (bps)."""
        return min(self._aimd.rate, self._loss_controller.rate)

    @property
    def goodput(self) -> float:
        """Measured receive rate over the last window (bps)."""
        return self.incoming_rate

    # -- internals ---------------------------------------------------------

    def _trim_rate_window(self, now: float) -> None:
        horizon = now - _RATE_WINDOW
        acked = self._acked
        while acked and acked[0][0] < horizon:
            self._acked_bytes -= acked.popleft()[1]
        sent = self._sent_acked
        while sent and sent[0][0] < horizon:
            self._sent_acked_bytes -= sent.popleft()[1]

    def _apply_burst_capacity_estimate(
        self, acked: List[Tuple[float, float, int]]
    ) -> None:
        """Capacity probing from back-to-back bursts (PROBE_BWE).

        Packets sent essentially simultaneously arrive spaced by the
        bottleneck's serialization time, so the arrival rate of a
        burst measures link capacity directly.  When a probe burst
        reveals far more capacity than the current estimate — typical
        right after a coverage fade ends — jump the estimate instead
        of crawling up at 8%/s.
        """
        run: List[Tuple[float, float, int]] = []
        best_estimate = 0.0
        ordered = sorted(acked, key=itemgetter(0))

        def flush(current_run: List[Tuple[float, float, int]]) -> float:
            if len(current_run) < _PROBE_MIN_PACKETS:
                return 0.0
            arrivals = [arrival for _, arrival, _ in current_run]
            span = max(arrivals) - min(arrivals)
            if span <= 0:
                return 0.0
            total = sum(size for _, _, size in current_run[1:])
            return total * 8 / span

        for packet in ordered:
            if run and packet[0] - run[-1][0] > _PROBE_SEND_GAP:
                best_estimate = max(best_estimate, flush(run))
                run = []
            run.append(packet)
        best_estimate = max(best_estimate, flush(run))
        if best_estimate > 1.5 * self._aimd.rate:
            jump = min(best_estimate * 0.85, self._aimd.rate * 4)
            self._aimd.rate = min(jump, self._aimd.max_rate)
            self._loss_controller.rate = max(
                self._loss_controller.rate, self._aimd.rate
            )

    def _compute_offered_rate(self) -> float:
        """How fast the sender pushed recently-acked packets onto the path."""
        if len(self._sent_acked) < 2:
            return 0.0
        span = max(self._sent_acked[-1][0] - self._sent_acked[0][0], 0.05)
        total = self._sent_acked_bytes - self._sent_acked[0][1]
        return max(total, 0) * 8 / span

    def _compute_incoming_rate(self, now: float) -> float:
        if len(self._acked) < 2:
            return self.incoming_rate if self._acked else 0.0
        first_arrival = self._acked[0][0]
        last_arrival = self._acked[-1][0]
        span = max(last_arrival - first_arrival, 0.05)
        # The first packet opens the window; its bytes arrived before
        # the span being measured, so exclude them (standard rate
        # estimator convention — avoids systematic underestimation).
        total_bytes = self._acked_bytes - self._acked[0][1]
        return max(total_bytes, 0) * 8 / span
