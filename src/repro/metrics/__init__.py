"""QoE metrics collection and reporting.

The collector receives events from sender and receiver (frames
encoded, packets sent per path, frames rendered, drops, keyframe
requests, feedback) and the summary layer computes the paper's QoE
metrics: FPS, freeze duration, E2E latency, media throughput, QP,
PSNR, FEC overhead and utilization.  The normalized forms of Figures
10/14/17 are ``experiments.runner.CellSummary.normalized``.
"""

from repro.metrics.collector import MetricsCollector, TimeSeries
from repro.metrics.qoe import QoeSummary, summarize
from repro.metrics.report import format_table

__all__ = [
    "MetricsCollector",
    "QoeSummary",
    "TimeSeries",
    "format_table",
    "summarize",
]
