"""Figure 3 + Table 1: multipath is not enough (§2.3).

Runs WebRTC, M-RTP, M-TPUT, SRTT and Converge with 1-3 camera streams
over the driving traces and reports:

- Fig. 3(a): normalized FPS (per-stream FPS / 24),
- Fig. 3(b): average freeze duration,
- Fig. 3(c): FEC overhead (ratio of FEC to media packets),
- Table 1: average number of frame drops and total keyframe requests.

The paper's shape: naive multipath variants are *worse* than
single-path WebRTC (more drops, more keyframe requests, lower FPS),
while Converge matches or beats WebRTC.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.core.config import SystemKind
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths, make_cell
from repro.experiments.figures import SYSTEM, Column, Table, tables

SYSTEMS = (
    SystemKind.WEBRTC,
    SystemKind.MRTP,
    SystemKind.MTPUT,
    SystemKind.SRTT,
    SystemKind.CONVERGE,
)


def cells(
    duration: float = 60.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    stream_counts: Sequence[int] = (1, 2, 3),
    systems: Sequence[SystemKind] = SYSTEMS,
) -> List[Cell]:
    return [
        make_cell(
            ScenarioPaths("driving"),
            system,
            seed=seed,
            duration=duration,
            num_streams=num_streams,
            fidelity=fidelity,
        )
        for num_streams in stream_counts
        for system in systems
    ]


_POINT: Sequence[Column] = (
    ("# streams", lambda cell, _: cell.num_streams),
    SYSTEM,
)
render = tables(
    Table(
        "Figure 3 — WebRTC and multipath variants vs Converge (driving)",
        (
            *_POINT,
            ("norm. FPS", lambda _, s: s.normalized()["fps"]),
            ("mean freeze (s)", lambda _, s: s.freeze_mean),
            ("FEC overhead", lambda _, s: s.fec_overhead),
        ),
    ),
    Table(
        "Table 1 — frame drops and keyframe requests",
        (
            *_POINT,
            ("frame drops", lambda _, s: s.frame_drops),
            ("keyframe requests", lambda _, s: s.keyframe_requests),
        ),
    ),
)
