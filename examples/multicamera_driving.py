"""Multi-camera conferencing under mobility (the paper's headline case).

Usage::

    python examples/multicamera_driving.py [num_streams]

Runs a dual/triple-camera call (Dualgram-style) over driving cellular
traces with single-path WebRTC and with Converge, and prints the
side-by-side QoE comparison.  This is the Figure 3 / Figure 10
scenario at example scale.
"""

import sys

from repro import SystemKind
from repro.experiments.cells import ScenarioPaths, make_cell
from repro.experiments.common import run_cell
from repro.metrics.report import format_table


def main(num_streams: int = 2) -> None:
    duration = 45.0
    seed = 11
    paths = ScenarioPaths("driving")
    print(
        f"{num_streams}-camera call, {duration:.0f}s, driving traces "
        f"({' + '.join(p.name for p in paths.build(duration, seed))})"
    )
    rows = []
    for system, kwargs in [
        (SystemKind.WEBRTC, {"single_path_id": 0, "label": "webrtc-tmobile"}),
        (SystemKind.WEBRTC, {"single_path_id": 1, "label": "webrtc-verizon"}),
        (SystemKind.CONVERGE, {"label": "converge"}),
    ]:
        result = run_cell(
            make_cell(
                paths,
                system,
                duration=duration,
                num_streams=num_streams,
                seed=seed,
                **kwargs,
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
                s.average_qp,
                100 * s.fec_overhead,
            ]
        )
    print(
        format_table(
            ["system", "tput Mbps", "FPS", "E2E ms", "freeze s", "QP", "FEC oh %"],
            rows,
        )
    )


if __name__ == "__main__":
    streams = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    main(streams)
