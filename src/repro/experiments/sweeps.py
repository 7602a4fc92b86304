"""Design-parameter sweeps (DESIGN.md §7).

Beyond the paper's own figures, these sweeps quantify the design
choices the reproduction documents as load-bearing:

- packet-buffer capacity vs frame drops (the §3.2 eviction mechanism:
  smaller buffers evict more under multipath skew),
- the playout deadline vs drops and latency (real-time budget: tighter
  deadlines trade drops for interactivity),
- Gilbert-Elliott vs Bernoulli loss at equal average rate (burstiness
  is what separates the FEC controllers).

The three sweeps are one grid, so their points execute in one pool,
hit the result cache on re-runs, and the point they share (the
receiver defaults) runs once.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import SystemKind
from repro.experiments.cells import (
    BuilderPaths,
    Cell,
    Fidelity,
    ScenarioPaths,
    make_cell,
)
from repro.experiments.common import constant_paths
from repro.experiments.figures import Row
from repro.experiments.runner import CellSummary
from repro.metrics.report import format_table
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.path import PathConfig
from repro.receiver.packet_buffer import PacketBufferConfig
from repro.receiver.session import ReceiverConfig


def loss_model_paths(
    duration: float, kind: str = "bernoulli", rate: float = 0.02
) -> List[PathConfig]:
    """Two constant 12 Mbps paths under the named loss process.

    Referenced declaratively by :class:`BuilderPaths`, so the sweep's
    cells stay hashable while carrying a stateful loss model.
    """
    paths = constant_paths([12e6, 12e6], [0.02, 0.03], [0.0, 0.0])
    for config in paths:
        if kind == "bernoulli":
            config.loss_model = BernoulliLoss(rate)
        elif kind == "gilbert-elliott":
            config.loss_model = GilbertElliottLoss(
                p_good_to_bad=rate * 0.1 / (0.2 - rate),
                p_bad_to_good=0.1,
                bad_loss=0.2,
            )
        else:
            raise ValueError(f"unknown loss model kind: {kind!r}")
    return paths


def cells(
    duration: float = 45.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    capacities: Sequence[int] = (64, 256, 1024, 2048),
    deadlines: Sequence[float] = (0.2, 0.4, 0.8, 1.6),
    loss_rate: float = 0.02,
) -> List[Cell]:
    """Packet-buffer, playout-deadline and loss-model points, in that
    order; the loss models share one long-run ``loss_rate``.  The flow
    model has no packet buffer, so at flow fidelity that block is left
    out rather than run as copies of the default cell."""
    converge = partial(
        make_cell, seed=seed, duration=duration, fidelity=fidelity
    )
    driving = ScenarioPaths("driving")
    if Fidelity(fidelity) is Fidelity.FLOW:
        capacities = ()
    receivers = [
        *(
            ReceiverConfig(packet_buffer=PacketBufferConfig(capacity_packets=c))
            for c in capacities
        ),
        *(ReceiverConfig(max_playout_latency=d) for d in deadlines),
    ]
    return [
        *(
            converge(driving, SystemKind.CONVERGE, receiver=receiver)
            for receiver in receivers
        ),
        *(
            converge(
                BuilderPaths(
                    "repro.experiments.sweeps:loss_model_paths",
                    (("kind", kind), ("rate", loss_rate)),
                ),
                SystemKind.CONVERGE,
                label=kind,
            )
            for kind in ("bernoulli", "gilbert-elliott")
        ),
    ]


def points(rows: Sequence[Row]) -> List[Tuple[str, object, CellSummary]]:
    """``(parameter, value, summary)`` per row.

    The receiver defaults (2048 packets, 0.8 s) are a point of every
    receiver sweep in the grid — one call, so one cell — and a sweep's
    points are contiguous in the grid: that cell goes with the row
    before it, or with the first sweep when it opens the grid.
    """
    swept = [_swept(cell) for cell, _summary in rows]
    parameter = next((p for p in swept if p is not None), "playout_deadline")
    out: List[Tuple[str, object, CellSummary]] = []
    for (cell, summary), own in zip(rows, swept):
        parameter = own or parameter
        receiver = cell.override_kwargs().get("receiver")
        value: object = cell.label
        if parameter == "packet_buffer":
            value = receiver.packet_buffer.capacity_packets
        elif parameter == "playout_deadline":
            value = receiver.max_playout_latency
        out.append((parameter, value, summary))
    return out


def _swept(cell: Cell) -> Optional[str]:
    """The parameter ``cell`` moves off the defaults; None for the
    receiver defaults themselves."""
    receiver = cell.override_kwargs().get("receiver")
    default = ReceiverConfig()
    if receiver is None:
        return "loss_model"
    if receiver.packet_buffer != default.packet_buffer:
        return "packet_buffer"
    if receiver.max_playout_latency != default.max_playout_latency:
        return "playout_deadline"
    return None


def render(rows: Sequence[Row]) -> str:
    return "Design-parameter sweeps (Converge, driving)\n" + format_table(
        ["parameter", "value", "FPS", "E2E ms", "drops", "freeze s"],
        [
            [parameter, value, s.average_fps, 1000 * s.e2e_mean,
             s.frame_drops, s.freeze_total]
            for parameter, value, s in points(rows)
        ],
    )
