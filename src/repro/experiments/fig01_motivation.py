"""Figure 1: WebRTC degrades under cellular bandwidth variation.

Reproduces the motivating experiment: two single-path WebRTC calls,
one over T-Mobile and one over Verizon, replaying driving traces.
The paper shows FPS collapses and per-frame E2E latency spikes as
capacity varies; the harness reports the FPS/E2E time series and the
summary statistics that make the motivation concrete (time below the
24 FPS target, E2E p95).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.analysis.plots import sparkline
from repro.core.config import SystemKind
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths, make_cell
from repro.experiments.figures import Row, Table
from repro.experiments.runner import CellSummary

NETWORKS = ("tmobile", "verizon")
TARGET_FPS = 24.0


def cells(
    duration: float = 60.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
) -> List[Cell]:
    """One single-path WebRTC cell per driving network."""
    return [
        make_cell(
            ScenarioPaths("driving", networks=(network,)),
            SystemKind.WEBRTC,
            seed=seed,
            duration=duration,
            label=f"webrtc-{network}",
            fidelity=fidelity,
        )
        for network in NETWORKS
    ]


def network_of(summary: CellSummary) -> str:
    return summary.label.removeprefix("webrtc-")


def fraction_below_target(summary: CellSummary) -> float:
    """Share of the call's one-second FPS samples under the target."""
    fps_series = summary.series_values("fps")
    below = sum(1 for v in fps_series if v < TARGET_FPS)
    return below / max(len(fps_series), 1)


FIG1 = Table(
    "Figure 1 — WebRTC over a single cellular network (driving)",
    (
        ("network", lambda _, s: network_of(s)),
        ("mean FPS", lambda _, s: s.average_fps),
        ("frac<24fps", lambda _, s: fraction_below_target(s)),
        ("E2E mean (s)", lambda _, s: s.e2e_mean),
        ("E2E p95 (s)", lambda _, s: s.e2e_p95),
        ("freeze (s)", lambda _, s: s.freeze_total),
    ),
)


def render(rows: Sequence[Row]) -> str:
    charts = "\n".join(
        f"FPS {network_of(summary):8s} "
        f"{sparkline(summary.series_values('fps'), width=64)}"
        for _, summary in rows
    )
    return FIG1.render(rows) + "\n\n" + charts
