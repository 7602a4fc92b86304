"""Delay-based bandwidth estimation: trendline filter + overuse detector.

Follows the WebRTC ``trendline_estimator`` design: per acked packet we
compute the one-way delay gradient ``(arrival_i - arrival_{i-1}) -
(send_i - send_{i-1})``, accumulate and smooth it, then fit a line over
the recent window.  A positive slope sustained past an adaptive
threshold signals overuse (queues building), a negative one underuse.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.cc.aimd import (
    USAGE_NORMAL,
    USAGE_OVERUSE,
    USAGE_UNDERUSE,
    BandwidthUsage,
)

_WINDOW_SIZE = 20
_SMOOTHING = 0.9
_THRESHOLD_GAIN = 4.0
_OVERUSE_TIME_THRESHOLD = 0.01  # seconds of sustained overuse
_MAX_ADAPT_OFFSET = 15.0  # ms, ignore spikes when adapting threshold
_K_UP = 0.0087
_K_DOWN = 0.039
# Packets sent within this window form one group; the delay gradient is
# computed between groups, not packets, so the sender's own frame
# bursts do not masquerade as queue growth (WebRTC's InterArrival).
_BURST_WINDOW = 0.005


class TrendlineEstimator:
    """Estimates the delay-gradient trend from (send, arrival) pairs.

    Packets are aggregated into send-side burst groups of at most
    ``_BURST_WINDOW`` seconds; one smoothed-delay sample is produced
    per completed group and the trend is the least-squares slope over
    the recent samples.
    """

    def __init__(self) -> None:
        self._prev_group: Optional[Tuple[float, float]] = None
        self._group_first_send: Optional[float] = None
        self._group_last_send = 0.0
        self._group_last_arrival = 0.0
        self._acc_delay_ms = 0.0
        self._smoothed_delay_ms = 0.0
        self._history: Deque[Tuple[float, float]] = deque(maxlen=_WINDOW_SIZE)
        self._first_arrival: Optional[float] = None
        self.trend = 0.0
        self.num_groups = 0

    def update(self, send_time: float, arrival_time: float) -> float:
        """Feed one acked packet; returns the current trend (ms/ms slope)."""
        if self._first_arrival is None:
            self._first_arrival = arrival_time
        if self._group_first_send is None:
            self._start_group(send_time, arrival_time)
            return self.trend
        if send_time - self._group_first_send <= _BURST_WINDOW:
            # Same burst group: extend it.
            if send_time > self._group_last_send:
                self._group_last_send = send_time
            if arrival_time > self._group_last_arrival:
                self._group_last_arrival = arrival_time
            return self.trend
        self._close_group()
        self._start_group(send_time, arrival_time)
        return self.trend

    def _start_group(self, send_time: float, arrival_time: float) -> None:
        self._group_first_send = send_time
        self._group_last_send = send_time
        self._group_last_arrival = arrival_time

    def _close_group(self) -> None:
        group = (self._group_last_send, self._group_last_arrival)
        if self._prev_group is not None:
            prev_send, prev_arrival = self._prev_group
            delta_ms = (
                (group[1] - prev_arrival) - (group[0] - prev_send)
            ) * 1000.0
            self._acc_delay_ms += delta_ms
            self._smoothed_delay_ms = (
                _SMOOTHING * self._smoothed_delay_ms
                + (1 - _SMOOTHING) * self._acc_delay_ms
            )
            assert self._first_arrival is not None
            self._history.append(
                (
                    (group[1] - self._first_arrival) * 1000.0,
                    self._smoothed_delay_ms,
                )
            )
            self.num_groups += 1
            if len(self._history) >= 2:
                self.trend = self._linear_fit_slope()
        self._prev_group = group

    def _linear_fit_slope(self) -> float:
        # Two explicit passes instead of four generator-expression
        # sums; per-term accumulation order is unchanged, so the float
        # results are bit-identical.
        history = self._history
        n = len(history)
        sum_x = 0.0
        sum_y = 0.0
        for x, y in history:
            sum_x += x
            sum_y += y
        mean_x = sum_x / n
        mean_y = sum_y / n
        numerator = 0.0
        denominator = 0.0
        for x, y in history:
            dx = x - mean_x
            numerator += dx * (y - mean_y)
            denominator += dx ** 2
        if denominator == 0:
            return 0.0
        return numerator / denominator


class OveruseDetector:
    """Turns the trend into overuse/underuse/normal with hysteresis."""

    def __init__(self) -> None:
        self._threshold_ms = 12.5
        self._last_update: Optional[float] = None
        self._overuse_start: Optional[float] = None
        self._overuse_count = 0
        self.state = USAGE_NORMAL

    def detect(self, trend: float, now: float, num_samples: int) -> BandwidthUsage:
        """Classify the current trend measured at time ``now``.

        Then adapt the threshold toward the trend's magnitude, ignoring
        spikes more than ``_MAX_ADAPT_OFFSET`` above it.
        """
        modified_trend = (
            (num_samples if num_samples < 60 else 60) * trend * _THRESHOLD_GAIN
        )
        threshold = self._threshold_ms
        if modified_trend > threshold:
            if self._overuse_start is None:
                self._overuse_start = now
                self._overuse_count = 0
            self._overuse_count += 1
            sustained = now - self._overuse_start >= _OVERUSE_TIME_THRESHOLD
            if sustained and self._overuse_count > 1:
                self.state = USAGE_OVERUSE
        elif modified_trend < -threshold:
            self._overuse_start = None
            self.state = USAGE_UNDERUSE
        else:
            self._overuse_start = None
            self.state = USAGE_NORMAL
        last_update = self._last_update
        if last_update is None:
            last_update = now
        self._last_update = now
        magnitude = abs(modified_trend)
        if magnitude > threshold + _MAX_ADAPT_OFFSET:
            return self.state
        k = _K_DOWN if magnitude < threshold else _K_UP
        elapsed_ms = (now - last_update) * 1000.0
        if elapsed_ms > 100.0:
            elapsed_ms = 100.0
        threshold += k * (magnitude - threshold) * elapsed_ms
        if threshold < 6.0:
            threshold = 6.0
        elif threshold > 600.0:
            threshold = 600.0
        self._threshold_ms = threshold
        return self.state

    @property
    def threshold_ms(self) -> float:
        return self._threshold_ms
