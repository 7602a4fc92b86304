"""Recovery-time accounting: how fast the call heals after each fault.

Steady-state QoE averages hide the pathology this repo's robustness
work targets: a control loop that survives a fault but takes ten
seconds to re-admit a path has failed the user even if the per-call
mean looks fine.  This module turns the raw events the collector holds
(fault windows, path lifecycle transitions, per-path rate series,
rendered frames) into per-fault recovery latencies that benchmarks can
regress on:

- ``reenable_time``: fault clear -> the sender re-admits the path
  (first ``enabled`` path event after the fault window).
- ``rate_recovery_time``: fault clear -> the path's GCC target rate is
  back to ``rate_fraction`` of its pre-fault baseline.
- ``qoe_recovery_time``: fault clear -> rendered frame rate is back to
  ``fps_fraction`` of its pre-fault baseline.

All three are ``None`` when recovery never happened inside the call
(itself a signal: the regression gate treats ``None`` as failure), and
0.0 when the metric never degraded in the first place.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional

from repro.metrics.collector import FaultRecord, MetricsCollector

# How much pre-fault history anchors the baseline.
_BASELINE_WINDOW = 5.0
# Sliding-window step when scanning for QoE recovery.
_SCAN_STEP = 0.1


@dataclass
class FaultRecovery:
    """Recovery latencies (seconds after fault clear) for one fault."""

    fault: FaultRecord
    reenable_time: Optional[float]
    rate_recovery_time: Optional[float]
    qoe_recovery_time: Optional[float]

    @property
    def recovered(self) -> bool:
        """Whether every tracked dimension recovered within the call."""
        return all(
            value is not None
            for value in (
                self.reenable_time,
                self.rate_recovery_time,
                self.qoe_recovery_time,
            )
        )

    @property
    def worst_time(self) -> Optional[float]:
        """The slowest recovery dimension, or ``None`` if any wedged."""
        if not self.recovered:
            return None
        return max(
            self.reenable_time, self.rate_recovery_time, self.qoe_recovery_time
        )


def compute_recovery(
    metrics: MetricsCollector,
    duration: float,
    frame_rate: float = 30.0,
    rate_fraction: float = 0.7,
    fps_fraction: float = 0.7,
) -> List[FaultRecovery]:
    """Per-fault recovery latencies for one finished call."""
    if not metrics.fault_events:
        return []
    render_times = sorted(f.render_time for f in metrics.rendered)
    reports: List[FaultRecovery] = []
    for fault in metrics.fault_events:
        reports.append(
            FaultRecovery(
                fault=fault,
                reenable_time=_reenable_time(metrics, fault, duration),
                rate_recovery_time=_rate_recovery_time(
                    metrics, fault, duration, rate_fraction
                ),
                qoe_recovery_time=_qoe_recovery_time(
                    render_times, fault, duration, frame_rate, fps_fraction
                ),
            )
        )
    return reports


def _reenable_time(
    metrics: MetricsCollector, fault: FaultRecord, duration: float
) -> Optional[float]:
    """Fault clear -> path re-admitted; 0.0 if it was never demoted."""
    demoted = False
    for time, path_id, event in metrics.path_events:
        if path_id != fault.path_id or time < fault.start:
            continue
        if event in ("disabled", "degraded"):
            demoted = True
        elif demoted and event in ("enabled", "restored") and time >= fault.end:
            return time - fault.end
    if not demoted:
        return 0.0
    return None


def _rate_recovery_time(
    metrics: MetricsCollector,
    fault: FaultRecord,
    duration: float,
    rate_fraction: float,
) -> Optional[float]:
    series = metrics.path_rate_series.get(fault.path_id)
    if series is None or not len(series):
        return None
    baseline_window = series.window(
        max(fault.start - _BASELINE_WINDOW, 0.0), fault.start
    )
    if not baseline_window:
        return None
    baseline = sum(baseline_window) / len(baseline_window)
    target = rate_fraction * baseline
    start = bisect_left(series.times, fault.end)
    degraded = False
    for time, value in zip(series.times[start:], series.values[start:]):
        if value >= target:
            # Count a recovery only if the rate had actually dipped
            # after the fault hit; an untouched rate recovers in 0.
            if not degraded:
                dipped = any(
                    v < target
                    for v in series.window(fault.start, fault.end + 1e-9)
                )
                return (time - fault.end) if dipped else 0.0
            return time - fault.end
        degraded = True
    return None


# ---------------------------------------------------------------------------
# Path churn accounting


@dataclass
class ChurnRecovery:
    """Render-continuity accounting for one path membership change.

    ``render_gap`` is the longest interval without a rendered frame in
    the window starting at the event (bounded by ``window``); for a
    BIRTH it measures disruption from re-normalizing the split, for a
    DEATH it is the migration latency — how long media stalled while
    the call re-routed onto the survivors.  ``time_to_next_render``
    is event -> first frame rendered afterwards (``None`` if the call
    never rendered again: the session did not survive this event).
    """

    time: float
    path_id: int
    action: str
    time_to_next_render: Optional[float]
    render_gap: float

    @property
    def survived(self) -> bool:
        return self.time_to_next_render is not None


@dataclass
class ChurnReport:
    """Aggregate churn survival for one call."""

    events: List[ChurnRecovery]

    @property
    def session_survived(self) -> bool:
        """Frames kept rendering after every membership change."""
        return all(e.survived for e in self.events)

    @property
    def max_render_gap(self) -> float:
        return max((e.render_gap for e in self.events), default=0.0)

    @property
    def worst_migration_latency(self) -> Optional[float]:
        """Slowest event -> next-render latency, None if any wedged."""
        latencies = [e.time_to_next_render for e in self.events]
        if any(value is None for value in latencies):
            return None
        return max((v for v in latencies if v is not None), default=0.0)


def compute_churn_recovery(
    metrics: MetricsCollector,
    duration: float,
    window: float = 5.0,
) -> ChurnReport:
    """Per-churn-event render continuity for one finished call.

    Only the driver-level transitions (``birth``, ``death``, ``drain``)
    are scored; the bookkeeping ``removed`` instant that follows every
    teardown is skipped so a graceful drain is not double-counted.
    """
    render_times = sorted(f.render_time for f in metrics.rendered)
    events: List[ChurnRecovery] = []
    for time, path_id, action in metrics.churn_events:
        if action == "removed":
            continue
        horizon = min(time + window, duration)
        events.append(
            ChurnRecovery(
                time=time,
                path_id=path_id,
                action=action,
                time_to_next_render=_next_render_after(render_times, time),
                render_gap=_longest_render_gap(render_times, time, horizon),
            )
        )
    return ChurnReport(events=events)


def _next_render_after(
    render_times: List[float], time: float
) -> Optional[float]:
    index = bisect_left(render_times, time)
    if index >= len(render_times):
        return None
    return render_times[index] - time


def _longest_render_gap(
    render_times: List[float], start: float, end: float
) -> float:
    """Longest frame-less interval inside [start, end]."""
    if end <= start:
        return 0.0
    lo = bisect_left(render_times, start)
    hi = bisect_left(render_times, end)
    previous = start
    longest = 0.0
    for time in render_times[lo:hi]:
        longest = max(longest, time - previous)
        previous = time
    return max(longest, end - previous)


def _qoe_recovery_time(
    render_times: List[float],
    fault: FaultRecord,
    duration: float,
    frame_rate: float,
    fps_fraction: float,
) -> Optional[float]:
    if not render_times:
        return None

    def fps_in(start: float, end: float) -> float:
        if end <= start:
            return 0.0
        lo = bisect_left(render_times, start)
        hi = bisect_left(render_times, end)
        return (hi - lo) / (end - start)

    baseline = fps_in(max(fault.start - _BASELINE_WINDOW, 0.0), fault.start)
    if baseline <= 0:
        baseline = frame_rate
    target = fps_fraction * baseline
    # Scan trailing 1 s windows after the fault clears.
    t = fault.end
    while t + 1.0 <= duration + 1e-9:
        if fps_in(t, t + 1.0) >= target:
            return t - fault.end
        t += _SCAN_STEP
    return None
