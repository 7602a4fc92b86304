"""Figures 14-15: comparison with existing solutions (driving).

All seven systems of §6: single-path WebRTC on each carrier,
WebRTC-CM (connection migration), the three multipath variants, and
Converge.  Reported:

- Fig. 14(a): normalized throughput / FPS / stall / QP,
- Fig. 14(b): FEC overhead and utilization,
- Fig. 14(c): E2E latency distribution (mean / p95),
- Fig. 15: PSNR distribution (mean / p10).

Expected shape: Converge has the highest delivered throughput, FPS
and PSNR, the lowest QP and FEC overhead with the highest FEC
utilization, and the lowest E2E among multipath systems (the naive
variants are qualitatively worse on E2E).
"""

from __future__ import annotations

from typing import List, Union

from repro.core.config import SystemKind
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths, make_cell
from repro.experiments.figures import (
    FEC_PERCENT,
    NORMALIZED,
    SYSTEM,
    Table,
    tables,
)

# The seven systems of §6, as (system, single_path_id, label).
RUNS = (
    (SystemKind.WEBRTC, 0, "webrtc-t"),
    (SystemKind.WEBRTC, 1, "webrtc-v"),
    (SystemKind.WEBRTC_CM, 0, "webrtc-cm"),
    (SystemKind.SRTT, 0, None),
    (SystemKind.MTPUT, 0, None),
    (SystemKind.MRTP, 0, None),
    (SystemKind.CONVERGE, 0, None),
)


def cells(
    duration: float = 60.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    num_streams: int = 1,
) -> List[Cell]:
    spec = ScenarioPaths("driving")  # tmobile, verizon
    return [
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
        for system, single_path_id, label in RUNS
    ]


render = tables(
    Table("Figure 14(a) — normalized QoE (driving)", (SYSTEM, *NORMALIZED)),
    Table(
        "Figure 14(b,c) — FEC and E2E",
        (
            SYSTEM,
            *FEC_PERCENT,
            ("E2E mean (s)", lambda _, s: s.e2e_mean),
            ("E2E p95 (s)", lambda _, s: s.e2e_p95),
        ),
    ),
    Table(
        "Figure 15 — PSNR",
        (
            SYSTEM,
            ("PSNR mean (dB)", lambda _, s: s.average_psnr),
            ("PSNR p10 (dB)", lambda _, s: s.psnr_p10),
        ),
    ),
)
