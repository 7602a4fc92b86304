"""Figures 12-13 + Table 5: the QoE trade-off of FEC (§6.2).

Controlled environment per the paper: two 15 Mbps paths (the
``capacities`` grid argument), 100 ms RTT, Bernoulli loss swept 1-10%.
Both arms use the Converge video-aware scheduler; they differ only in
the FEC controller — path-specific (Converge, §4.3) vs WebRTC's static
table — isolating the FEC design as §6.2's component analysis does.

- Fig. 12: FEC overhead and FEC utilization vs loss rate,
- Fig. 13: (media throughput, E2E delay) operating points,
- Table 5: % improvement in frame drops, freeze duration and keyframe
  requests from the path-specific controller.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union, cast

from repro.core.config import FecMode, SystemKind
from repro.experiments.cells import Cell, ConstantPaths, Fidelity, make_cell
from repro.experiments.figures import Column, Row, Table, tables
from repro.metrics.report import format_table


def cells(
    duration: float = 60.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    loss_percents: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    capacities: Tuple[float, float] = (15e6, 15e6),
) -> List[Cell]:
    """Per loss rate: path-specific FEC, then the WebRTC table."""
    return [
        make_cell(
            ConstantPaths(
                tuple(capacities), (0.05, 0.05), (percent / 100.0,) * 2
            ),
            SystemKind.CONVERGE,
            seed=seed,
            duration=duration,
            label=fec_mode.value,
            fidelity=fidelity,
            fec_mode=fec_mode,
        )
        for percent in loss_percents
        for fec_mode in (FecMode.CONVERGE, FecMode.WEBRTC_TABLE)
    ]


def loss_percent(cell: Cell) -> float:
    """The cell's swept loss rate, in percent (whole numbers as ints,
    the way the grid states them and the figures print them)."""
    percent = round(100 * cast(ConstantPaths, cell.paths).loss_rates[0], 9)
    return int(percent) if percent.is_integer() else percent


def arm(rows: Sequence[Row], fec_mode: str) -> List[Row]:
    """One FEC controller's rows, by rising loss rate."""
    return sorted(
        (row for row in rows if row[1].label == fec_mode),
        key=lambda row: loss_percent(row[0]),
    )


def table5(rows: Sequence[Row]) -> List[Dict[str, float]]:
    """% improvement of path-specific FEC over the table (per loss)."""

    def improvement(ours: float, theirs: float) -> float:
        if theirs <= 0:
            return 0.0
        return 100.0 * (theirs - ours) / theirs

    return [
        {
            "loss_percent": loss_percent(cell),
            "frame_drops": improvement(ours.frame_drops, theirs.frame_drops),
            "freeze": improvement(ours.freeze_total, theirs.freeze_total),
            "keyframe_requests": improvement(
                ours.keyframe_requests, theirs.keyframe_requests
            ),
        }
        for (cell, ours), (_, theirs) in zip(
            arm(rows, "converge"), arm(rows, "webrtc-table")
        )
    ]


_POINT: Sequence[Column] = (
    ("loss %", lambda cell, _: loss_percent(cell)),
    ("FEC mode", lambda _, s: s.label),
)
_FIG12_13 = tables(
    Table(
        "Figure 12 — FEC overhead/utilization vs loss",
        (
            *_POINT,
            ("overhead %", lambda _, s: 100 * s.fec_overhead),
            ("utilization %", lambda _, s: 100 * s.fec_utilization),
        ),
    ),
    Table(
        "Figure 13 — throughput vs E2E trade-off",
        (
            *_POINT,
            ("tput (Mbps)", lambda _, s: s.throughput_bps / 1e6),
            ("E2E (s)", lambda _, s: s.e2e_mean),
        ),
    ),
)


def render(rows: Sequence[Row]) -> str:
    pairwise = format_table(
        ["loss %", "drops improv %", "freeze improv %", "kfr improv %"],
        [
            [r["loss_percent"], r["frame_drops"], r["freeze"],
             r["keyframe_requests"]]
            for r in table5(rows)
        ],
    )
    return (
        _FIG12_13(rows)
        + "\n\nTable 5 — % QoE improvement, path-specific FEC vs table FEC\n"
        + pairwise
    )
