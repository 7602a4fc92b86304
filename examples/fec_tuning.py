"""FEC strategy comparison on lossy paths (the §4.3 trade-off).

Usage::

    python examples/fec_tuning.py

Runs the same video-aware multipath call with three FEC strategies —
Converge's path-specific controller, WebRTC's static table, and no
FEC at all — over two lossy paths, showing the protection/QoE
trade-off that motivates the path-specific design.
"""

from repro import FecMode, SystemKind
from repro.experiments.cells import ConstantPaths, make_cell
from repro.experiments.common import run_cell
from repro.metrics.report import format_table


def main() -> None:
    duration = 45.0
    seed = 3
    loss = 0.03
    paths = ConstantPaths(
        (15e6, 15e6), (0.05, 0.05), (loss, loss), names=("p1", "p2")
    )
    print(f"Two 15 Mbps paths, 100 ms RTT, {100 * loss:.0f}% loss each")
    rows = []
    for fec_mode in (FecMode.CONVERGE, FecMode.WEBRTC_TABLE, FecMode.NONE):
        result = run_cell(
            make_cell(
                paths,
                SystemKind.CONVERGE,
                duration=duration,
                seed=seed,
                fec_mode=fec_mode,
                label=f"fec={fec_mode.value}",
            )
        )
        s = result.summary
        rows.append(
            [
                result.label,
                100 * s.fec_overhead,
                100 * s.fec_utilization,
                s.throughput_bps / 1e6,
                s.e2e_mean * 1000,
                s.frame_drops,
                s.freeze.total_duration,
            ]
        )
    print(
        format_table(
            ["strategy", "FEC oh %", "FEC util %", "tput Mbps", "E2E ms",
             "drops", "freeze s"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
