"""Figures 16-17 + Table 6: the stationary scenario (Appendix A).

WiFi + T-Mobile without mobility.  The paper's shape: with a stable
WiFi network, Converge and WebRTC-W are close on FPS and stalls;
Converge still wins on throughput (path aggregation, ~41% over
WebRTC-W and ~2.7x over WebRTC-T) and QP, with minimal FEC overhead
and slightly higher E2E at high stream counts (it moves more bytes).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.experiments import fig09_10_wild
from repro.experiments.cells import Cell, Fidelity
from repro.experiments.figures import (
    FEC_PERCENT,
    STREAMS,
    SYSTEM,
    Table,
    tables,
)


def cells(
    duration: float = 60.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    stream_counts: Sequence[int] = (1, 2, 3),
) -> List[Cell]:
    """The in-the-wild grid (WebRTC-W, WebRTC-T, Converge per stream
    count) on the stationary traces."""
    return fig09_10_wild.cells(
        duration, seed, fidelity, scenarios=("stationary",),
        stream_counts=stream_counts,
    )


render = tables(
    Table("Figure 17 — normalized QoE (stationary)", fig09_10_wild.FIG10),
    Table(
        "Table 6 — E2E / FEC (stationary)",
        (
            STREAMS,
            SYSTEM,
            ("E2E (ms)", lambda _, s: 1000 * s.e2e_mean),
            *FEC_PERCENT,
        ),
    ),
)
