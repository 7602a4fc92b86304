"""JSON export of call results and runner reports."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, TypeVar, Union

from repro.core.session import CallResult
from repro.metrics.collector import TimeSeries
from repro.metrics.recovery import compute_churn_recovery, compute_recovery

_T = TypeVar("_T")

if TYPE_CHECKING:  # deferred: the runner itself imports this module
    from repro.experiments.runner import RunReport


def result_to_dict(result: CallResult) -> Dict[str, Any]:
    """Flatten a :class:`CallResult` into JSON-serializable data.

    Includes the full QoE summary, the time series the experiments
    plot, and per-path send accounting — everything needed to redraw
    the paper's figures outside this package.

    The payload is built in *normal form*: exactly what decoding its
    ``canonical_json`` text would return.  Every dict has str keys in
    sorted order (the literals below are written that way; the
    per-path dicts go through :func:`_by_path`), sequences are fresh
    lists, leaves are str/int/float/bool/None, and nothing is shared
    with the live ``MetricsCollector``.  The runner, the batch backend
    and the cache rely on this and never re-normalize.
    """
    summary = result.summary
    metrics = result.metrics
    payload: Dict[str, Any] = {
        "config": {
            "duration": result.config.duration,
            "fec_mode": result.config.fec_mode.value,
            "num_streams": result.config.num_streams,
            "qoe_feedback_enabled": result.config.qoe_feedback_enabled,
            "seed": result.config.seed,
            "system": result.config.system.value,
        },
        "events": {
            "feedback": [list(row) for row in metrics.feedback_events],
            "keyframe_requests": [
                list(row) for row in metrics.keyframe_requests
            ],
            "path_events": [
                {"event": event, "path_id": path_id, "time": time}
                for time, path_id, event in metrics.path_events
            ],
        },
        "faults": {
            "injected": [
                {
                    "end": fault.end,
                    "kind": fault.kind,
                    "path_id": fault.path_id,
                    "start": fault.start,
                }
                for fault in metrics.fault_events
            ],
            "recovery": [
                {
                    "end": r.fault.end,
                    "kind": r.fault.kind,
                    "path_id": r.fault.path_id,
                    "qoe_recovery_time": r.qoe_recovery_time,
                    "rate_recovery_time": r.rate_recovery_time,
                    "recovered": r.recovered,
                    "reenable_time": r.reenable_time,
                    "start": r.fault.start,
                }
                for r in compute_recovery(
                    metrics,
                    result.config.duration,
                    frame_rate=result.config.frame_rate,
                )
            ],
        },
        "label": result.label,
        "paths": {
            str(path_id): {
                "fec_bytes": record.fec_bytes,
                "fec_packets": record.fec_packets,
                "media_bytes": record.media_bytes,
                "media_packets": record.media_packets,
                "rtx_bytes": record.rtx_bytes,
                "rtx_packets": record.rtx_packets,
            }
            for path_id, record in _by_path(metrics.path_sends)
        },
        "series": {
            "fcd": _series(metrics.fcd_series),
            "fps": _series(metrics.fps_series(result.config.duration)),
            "ifd": _series(metrics.ifd_series),
            "path_rates": {
                str(path_id): _series(series)
                for path_id, series in _by_path(metrics.path_rate_series)
            },
            "receive_rate": _series(metrics.receive_rate_series),
            "target_rate": _series(metrics.target_rate_series),
        },
        "summary": {
            "average_fps": summary.average_fps,
            "average_psnr": summary.average_psnr,
            "average_qp": summary.average_qp,
            "e2e_mean": summary.e2e_mean,
            "e2e_p95": summary.e2e_p95,
            "e2e_std": summary.e2e_std,
            "fec_overhead": summary.fec_overhead,
            "fec_utilization": summary.fec_utilization,
            "frame_drops": summary.frame_drops,
            "frames_rendered": summary.frames_rendered,
            "freeze_count": summary.freeze.count,
            "freeze_mean": summary.freeze.mean_duration,
            "freeze_total": summary.freeze.total_duration,
            "keyframe_requests": summary.keyframe_requests,
            "psnr_samples": list(summary.psnr_samples),
            "throughput_bps": summary.throughput_bps,
        },
    }
    if metrics.churn_events:
        # Conditional so churn-free payloads stay byte-identical to
        # their pre-lifecycle golden fixtures; "churn" sorts first.
        report = compute_churn_recovery(metrics, result.config.duration)
        churn = {
            "events": [
                {"action": action, "path_id": path_id, "time": time}
                for time, path_id, action in metrics.churn_events
            ],
            "max_render_gap": report.max_render_gap,
            "recovery": [
                {
                    "action": e.action,
                    "path_id": e.path_id,
                    "render_gap": e.render_gap,
                    "survived": e.survived,
                    "time": e.time,
                    "time_to_next_render": e.time_to_next_render,
                }
                for e in report.events
            ],
            "session_survived": report.session_survived,
            "worst_migration_latency": report.worst_migration_latency,
        }
        payload = {"churn": churn, **payload}
    return payload


def _by_path(mapping: Dict[int, _T]) -> List[Tuple[int, _T]]:
    """A per-path dict's items in the order ``str(path_id)`` sorts."""
    return sorted(mapping.items(), key=lambda item: str(item[0]))


def _series(series: TimeSeries) -> Dict[str, List[float]]:
    return {"times": list(series.times), "values": list(series.values)}


def save_result_json(result: CallResult, path: Union[str, Path]) -> Path:
    """Write ``result`` to ``path`` as JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(result_to_dict(result), indent=2))
    return target


def run_report_to_dict(report: "RunReport") -> Dict[str, Any]:
    """Flatten a :class:`repro.experiments.runner.RunReport` to JSON data.

    Includes the runner's wall-clock/cache statistics plus every cell
    summary.
    """
    return {
        "stats": report.stats.payload(),
        "cells": [
            {
                "key": outcome.key,
                "cell": outcome.cell.resolved(),
                "cached": outcome.cached,
                "wall_seconds": outcome.wall_seconds,
                "error": outcome.error,
                "summary": outcome.summary.data if outcome.summary else None,
            }
            for outcome in report.outcomes
        ],
    }


def save_run_report_json(report: "RunReport", path: Union[str, Path]) -> Path:
    """Write a runner report (stats + all cell summaries) as JSON."""
    target = Path(path)
    target.write_text(json.dumps(run_report_to_dict(report), indent=2))
    return target
