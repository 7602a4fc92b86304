"""Figures 9-10 + Table 3: Converge in the wild (walking and driving).

Walking: Converge bonds WiFi + T-Mobile while single-path WebRTC runs
on each network alone.  Driving: Verizon + T-Mobile.  Reported per
system and per number of camera streams:

- throughput / FPS / E2E time series (Fig. 9),
- normalized QoE (Fig. 10): throughput / 10 Mbps-per-stream, FPS / 24,
  stall fraction, QP / 60,
- Table 3: E2E latency, FEC overhead and FEC utilization.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Sequence, Union, cast

from repro.core.config import SystemKind
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths, make_cell
from repro.experiments.figures import (
    FEC_PERCENT,
    NORMALIZED,
    STREAMS,
    SYSTEM,
    Column,
    Row,
    Table,
    tables,
)

# Path 0 and path 1 per scenario.  Figs. 9-10 are the two mobile ones;
# the stationary grid is Appendix A's (fig16_17_stationary).
SCENARIO_NETWORKS = {
    "walking": ("wifi", "tmobile"),
    "driving": ("verizon", "tmobile"),
    "stationary": ("wifi", "tmobile"),
}


def cells(
    duration: float = 60.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    scenarios: Sequence[str] = ("walking", "driving"),
    stream_counts: Sequence[int] = (1, 2, 3),
) -> List[Cell]:
    """Per scenario and stream count: WebRTC on each network alone
    (WebRTC-W, -T, -V by the network's initial), then Converge on both."""
    job_list = []
    for scenario in scenarios:
        if scenario not in SCENARIO_NETWORKS:
            raise ValueError(
                f"scenario must be one of {sorted(SCENARIO_NETWORKS)}"
            )
        networks = SCENARIO_NETWORKS[scenario]
        spec = ScenarioPaths(scenario, networks=networks)
        for num_streams in stream_counts:
            runs = [
                *(
                    (SystemKind.WEBRTC, path_id, f"webrtc-{network[0]}")
                    for path_id, network in enumerate(networks)
                ),
                (SystemKind.CONVERGE, 0, "converge"),
            ]
            for system, single_path_id, label in runs:
                job_list.append(
                    make_cell(
                        spec,
                        system,
                        seed=seed,
                        duration=duration,
                        num_streams=num_streams,
                        single_path_id=single_path_id,
                        label=label,
                        fidelity=fidelity,
                    )
                )
    return job_list


def scenario_of(cell: Cell) -> str:
    return cast(ScenarioPaths, cell.paths).scenario


FIG10: Sequence[Column] = (STREAMS, SYSTEM, *NORMALIZED)
TABLE3: Sequence[Column] = (
    STREAMS,
    SYSTEM,
    ("E2E (s)", lambda _, s: s.e2e_mean),
    ("E2E std", lambda _, s: s.e2e_std),
    *FEC_PERCENT,
)


def render(rows: Sequence[Row]) -> str:
    """Figure 10 and Table 3, once per scenario in grid order."""
    return "\n\n".join(
        tables(
            Table(f"Figure 10 — normalized QoE ({scenario})", FIG10),
            Table(f"Table 3 — E2E / FEC ({scenario})", TABLE3),
        )(list(group))
        for scenario, group in groupby(rows, lambda row: scenario_of(row[0]))
    )
