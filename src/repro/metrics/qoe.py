"""QoE summary computation.

Turns the raw event log into the metrics the paper reports (§6):
average FPS, freeze duration, E2E latency, media throughput, QP, PSNR,
FEC overhead and utilization, frame drops and keyframe requests.

Freeze definition: a gap between consecutive rendered frames larger
than ``freeze_threshold`` counts as a freeze; its duration is the gap
minus the nominal frame interval (the part of the gap the user
perceives as stalled video).  PSNR per rendered interval comes from
the encoder's RD model via the frame's QP; freezes repeat the last
frame, which contributes a fixed repeated-frame PSNR.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, List, Optional, Sequence

from repro.metrics.collector import MetricsCollector, RenderedFrame
from repro.video.quality import RateDistortionModel

FREEZE_THRESHOLD = 0.2
REPEATED_FRAME_PSNR = 18.0  # PSNR of showing a stale frame vs live scene


@dataclass
class FreezeStats:
    count: int = 0
    total_duration: float = 0.0
    durations: List[float] = field(default_factory=list)

    @property
    def mean_duration(self) -> float:
        if not self.durations:
            return 0.0
        return self.total_duration / len(self.durations)


@dataclass
class QoeSummary:
    """All per-call QoE metrics in one record."""

    duration: float
    num_streams: int
    frames_rendered: int
    average_fps: float
    freeze: FreezeStats
    e2e_mean: float
    e2e_std: float
    e2e_p95: float
    e2e_samples: List[float]
    throughput_bps: float
    average_qp: float
    average_psnr: float
    psnr_samples: List[float]
    fec_overhead: float
    fec_utilization: float
    frame_drops: int
    keyframe_requests: int


def _freeze_stats(
    render_times: Sequence[float],
    duration: float,
    nominal_interval: float,
    threshold: float,
) -> FreezeStats:
    stats = FreezeStats()
    if not render_times:
        stats.count = 1
        stats.total_duration = duration
        stats.durations.append(duration)
        return stats
    ordered = sorted(render_times)
    # Include the leading gap (call start to first frame) and trailing
    # gap (last frame to call end): both are perceived as frozen video.
    boundaries = [0.0] + list(ordered) + [duration]
    for previous, current in zip(boundaries, boundaries[1:]):
        gap = current - previous
        if gap > threshold:
            stats.count += 1
            frozen = gap - nominal_interval
            stats.total_duration += frozen
            stats.durations.append(frozen)
    return stats


def summarize(
    collector: MetricsCollector,
    duration: float,
    num_streams: int = 1,
    frame_rate: float = 30.0,
    rd_model: Optional[RateDistortionModel] = None,
    freeze_threshold: float = FREEZE_THRESHOLD,
) -> QoeSummary:
    """Compute the QoE summary for one finished call."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rd = rd_model or RateDistortionModel(frame_rate=frame_rate)
    nominal_interval = 1.0 / frame_rate

    # One pass over the rendered frames.  A NaN qp (``qp != qp``) is a
    # frame whose encoder record never arrived: it has no PSNR either.
    rendered: List[RenderedFrame] = collector.rendered
    psnr_for_qp = rd.psnr_for_qp
    e2e: List[float] = []
    qps: List[float] = []
    psnr_samples: List[float] = []
    render_times: DefaultDict[int, List[float]] = defaultdict(list)
    for frame in rendered:
        render_time = frame.render_time
        e2e.append(render_time - frame.capture_time)
        qp = frame.qp
        if qp == qp:
            qps.append(qp)
            psnr_samples.append(psnr_for_qp(qp))
        render_times[frame.ssrc].append(render_time)

    # Freeze statistics are computed per stream then aggregated, since
    # each camera stream freezes independently.  A stream that never
    # rendered is frozen for the whole call.  Streams are counted, not
    # matched by ssrc: packet ssrcs start at 1, flow ssrcs at 0.
    streams = max(num_streams, len(render_times), 1)
    per_stream = [render_times[ssrc] for ssrc in sorted(render_times)]
    per_stream += [[]] * (streams - len(per_stream))
    freeze = FreezeStats()
    for times in per_stream:
        stream_freeze = _freeze_stats(
            times, duration, nominal_interval, freeze_threshold
        )
        freeze.count += stream_freeze.count
        freeze.total_duration += stream_freeze.total_duration
        freeze.durations.extend(stream_freeze.durations)

    # Frozen intervals show a stale frame: add repeated-frame samples
    # at the nominal frame rate for the frozen time.
    frozen_frames = int(freeze.total_duration * frame_rate)
    psnr_samples.extend([REPEATED_FRAME_PSNR] * frozen_frames)

    e2e_mean = sum(e2e) / len(e2e) if e2e else 0.0
    e2e_std = (
        math.sqrt(sum((x - e2e_mean) ** 2 for x in e2e) / len(e2e))
        if e2e
        else 0.0
    )
    e2e_sorted = sorted(e2e)
    e2e_p95 = (
        e2e_sorted[min(int(0.95 * len(e2e_sorted)), len(e2e_sorted) - 1)]
        if e2e_sorted
        else 0.0
    )

    media_packets = collector.total_media_packets_sent
    fec_packets = collector.total_fec_packets_sent
    fec_overhead = fec_packets / media_packets if media_packets else 0.0
    fec_utilization = (
        collector.fec_recoveries / collector.fec_received
        if collector.fec_received
        else 0.0
    )

    return QoeSummary(
        duration=duration,
        num_streams=num_streams,
        frames_rendered=len(rendered),
        average_fps=len(rendered) / duration / streams,
        freeze=freeze,
        e2e_mean=e2e_mean,
        e2e_std=e2e_std,
        e2e_p95=e2e_p95,
        e2e_samples=e2e,
        throughput_bps=collector.received_media_bytes * 8 / duration,
        average_qp=sum(qps) / len(qps) if qps else rd.qp_max,
        average_psnr=(
            sum(psnr_samples) / len(psnr_samples) if psnr_samples else 0.0
        ),
        psnr_samples=psnr_samples,
        fec_overhead=fec_overhead,
        fec_utilization=fec_utilization,
        frame_drops=collector.frame_drop_count,
        keyframe_requests=len(collector.keyframe_requests),
    )
