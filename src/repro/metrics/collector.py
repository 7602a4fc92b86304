"""Event collection for QoE analysis."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be appended in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def window(self, start: float, end: float) -> List[float]:
        """Values with timestamps in ``[start, end)``."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return self.values[lo:hi]

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)


@dataclass(slots=True)
class RenderedFrame:
    """One frame that reached the screen.

    One per rendered frame (about 131 k in a ``flow-figs`` pass): no
    ``__dict__``, and the two call sites build it positionally, so the
    field order below is pinned by ``tests/test_hot_path.py``.
    """

    ssrc: int
    frame_id: int
    capture_time: float
    render_time: float
    size_bytes: int
    is_keyframe: bool
    fec_recovered: bool
    qp: float = float("nan")


@dataclass
class EncodedFrameRecord:
    ssrc: int
    frame_id: int
    capture_time: float
    size_bytes: int
    qp: float
    is_keyframe: bool


@dataclass
class FaultRecord:
    """One fault window injected into the call."""

    kind: str
    path_id: int
    start: float
    end: float


@dataclass
class PathSendRecord:
    media_packets: int = 0
    media_bytes: int = 0
    fec_packets: int = 0
    fec_bytes: int = 0
    rtx_packets: int = 0
    rtx_bytes: int = 0


class MetricsCollector:
    """Receives raw events from the pipeline; queried by the summary layer."""

    def __init__(self) -> None:
        self.rendered: List[RenderedFrame] = []
        self.encoded: Dict[Tuple[int, int], EncodedFrameRecord] = {}
        self.frame_drops: List[Tuple[float, int, int, str]] = []
        self.frame_drop_count = 0
        self.keyframe_requests: List[Tuple[float, int]] = []
        self.feedback_events: List[Tuple[float, int, int, float]] = []
        self.path_sends: Dict[int, PathSendRecord] = {}
        self.received_media_bytes = 0
        self.fec_received = 0
        self.fec_recoveries = 0
        self.receive_rate_series = TimeSeries()
        self.target_rate_series = TimeSeries()
        self.ifd_series = TimeSeries()
        self.fcd_series = TimeSeries()
        self.path_rate_series: Dict[int, TimeSeries] = {}
        self._received_bytes_window: Deque[Tuple[float, int]] = deque()
        # Running byte total of the window (exact: sizes are ints).
        self._received_window_bytes = 0
        # Fault windows injected by repro.faults and the sender-side
        # path lifecycle transitions (degraded/disabled/enabled/...),
        # the raw material for recovery-time accounting.
        self.fault_events: List[FaultRecord] = []
        self.path_events: List[Tuple[float, int, str]] = []
        # Path membership changes applied by the churn driver: birth,
        # drain (graceful teardown started), death (abrupt teardown),
        # removed (state fully torn down).
        self.churn_events: List[Tuple[float, int, str]] = []

    # -- sender events -----------------------------------------------------

    def record_encoded_frame(
        self,
        ssrc: int,
        frame_id: int,
        capture_time: float,
        size_bytes: int,
        qp: float,
        is_keyframe: bool,
    ) -> None:
        self.encoded[(ssrc, frame_id)] = EncodedFrameRecord(
            ssrc, frame_id, capture_time, size_bytes, qp, is_keyframe
        )

    def path_record(self, path_id: int) -> PathSendRecord:
        """The send counters of ``path_id``, created on first use.

        The sender adds every packet it hands to a path to the media,
        FEC or RTX counters of that path's record.
        """
        record = self.path_sends.get(path_id)
        if record is None:
            record = self.path_sends[path_id] = PathSendRecord()
        return record

    def record_target_rate(self, time: float, rate_bps: float) -> None:
        self.target_rate_series.append(time, rate_bps)

    def record_path_rate(self, time: float, path_id: int, rate: float) -> None:
        series = self.path_rate_series.get(path_id)
        if series is None:
            series = self.path_rate_series[path_id] = TimeSeries()
        series.append(time, rate)

    # -- receiver events -----------------------------------------------------

    def record_render(self, frame: RenderedFrame) -> None:
        encoded = self.encoded.get((frame.ssrc, frame.frame_id))
        if encoded is not None:
            frame.qp = encoded.qp
        self.rendered.append(frame)

    def record_media_received(self, time: float, size_bytes: int) -> None:
        self.received_media_bytes += size_bytes
        self._received_bytes_window.append((time, size_bytes))
        self._received_window_bytes += size_bytes

    def record_receive_rate_sample(self, time: float, window: float = 1.0) -> None:
        """Sample the received media rate over the trailing window."""
        cutoff = time - window
        pending = self._received_bytes_window
        while pending and pending[0][0] < cutoff:
            self._received_window_bytes -= pending.popleft()[1]
        self.receive_rate_series.append(
            time, self._received_window_bytes * 8 / window
        )

    def record_frame_drop(
        self, time: float, ssrc: int, frame_id: int, reason: str
    ) -> None:
        self.frame_drops.append((time, ssrc, frame_id, reason))
        self.frame_drop_count += 1

    def add_frame_drops(self, count: int) -> None:
        """Bulk-add drops tallied by a buffer's own statistics."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.frame_drop_count += count

    def record_keyframe_request(self, time: float, ssrc: int) -> None:
        self.keyframe_requests.append((time, ssrc))

    def record_feedback(
        self, time: float, path_id: int, alpha: int, fcd: float
    ) -> None:
        self.feedback_events.append((time, path_id, alpha, fcd))

    def record_ifd(self, time: float, ifd: float) -> None:
        self.ifd_series.append(time, ifd)

    def record_fcd(self, time: float, fcd: float) -> None:
        self.fcd_series.append(time, fcd)

    def record_fault(
        self, kind: str, path_id: int, start: float, end: float
    ) -> None:
        """Register one injected fault window (called at arm time)."""
        self.fault_events.append(FaultRecord(kind, path_id, start, end))

    def record_path_event(self, time: float, path_id: int, event: str) -> None:
        """Log a sender-side path lifecycle transition.

        Events: ``degraded`` (feedback-silence watchdog froze the
        path's rate), ``restored`` (feedback returned to a degraded
        path), ``disabled`` / ``enabled`` (scheduler eligibility), and
        ``failsafe`` (total feedback starvation forced last-known-good
        single-path operation).
        """
        self.path_events.append((time, path_id, event))

    def record_churn_event(
        self, time: float, path_id: int, event: str
    ) -> None:
        """Log a path membership change (birth/drain/death/removed)."""
        self.churn_events.append((time, path_id, event))

    def record_fec_stats(self, fec_received: int, recoveries: int) -> None:
        self.fec_received = fec_received
        self.fec_recoveries = recoveries

    def add_fec_stats(self, fec_received: int, recoveries: int) -> None:
        self.fec_received += fec_received
        self.fec_recoveries += recoveries

    # -- derived ---------------------------------------------------------------

    @property
    def total_media_packets_sent(self) -> int:
        return sum(r.media_packets for r in self.path_sends.values())

    @property
    def total_fec_packets_sent(self) -> int:
        return sum(r.fec_packets for r in self.path_sends.values())

    def fps_series(
        self, duration: float, bucket: float = 1.0, ssrc: Optional[int] = None
    ) -> TimeSeries:
        """Frames rendered per second, bucketed over the call."""
        series = TimeSeries()
        frames = (
            self.rendered
            if ssrc is None
            else [f for f in self.rendered if f.ssrc == ssrc]
        )
        times = sorted(f.render_time for f in frames)
        t = 0.0
        index = 0
        while t < duration:
            end = bisect_left(times, t + bucket, index)
            series.append(t + bucket, (end - index) / bucket)
            index = end
            t += bucket
        return series
