"""Scheduler comparison on the walking scenario.

Usage::

    python examples/scheduler_shootout.py

Runs every multipath scheduler the paper evaluates (plus single-path
WebRTC and WebRTC-CM) over walking WiFi + T-Mobile traces and prints
the QoE comparison — example-scale Figure 14.
"""

from repro import SystemKind
from repro.experiments.cells import ScenarioPaths, make_cell
from repro.experiments.common import run_cell
from repro.metrics.report import format_table


def main() -> None:
    duration = 45.0
    seed = 21
    rows = []
    for system, kwargs in [
        (SystemKind.WEBRTC, {"single_path_id": 0, "label": "webrtc-wifi"}),
        (SystemKind.WEBRTC_CM, {"single_path_id": 0}),
        (SystemKind.SRTT, {}),
        (SystemKind.MTPUT, {}),
        (SystemKind.MRTP, {}),
        (SystemKind.CONVERGE, {}),
    ]:
        result = run_cell(
            make_cell(
                ScenarioPaths("walking"), system, duration=duration,
                seed=seed, **kwargs,
            )
        )
        s = result.summary
        rows.append(
            [
                result.label,
                s.throughput_bps / 1e6,
                s.average_fps,
                s.e2e_mean * 1000,
                s.freeze.total_duration,
                s.frame_drops,
                s.keyframe_requests,
            ]
        )
    print("Walking scenario: WiFi + T-Mobile")
    print(
        format_table(
            ["system", "tput Mbps", "FPS", "E2E ms", "freeze s", "drops", "kfr"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
