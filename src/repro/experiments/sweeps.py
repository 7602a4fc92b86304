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
from typing import List, Sequence, Tuple, Union

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
    order; the loss models share one long-run ``loss_rate``."""
    converge = partial(
        make_cell, seed=seed, duration=duration, fidelity=fidelity
    )
    driving = ScenarioPaths("driving")
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

    The receiver defaults (2048 packets, 0.8 s) are a point of both
    receiver sweeps — one call, so one cell — and a sweep's points are
    contiguous in the grid: that cell goes with the row before it.
    """
    default = ReceiverConfig()
    parameter = "packet_buffer"
    out: List[Tuple[str, object, CellSummary]] = []
    for cell, summary in rows:
        receiver = cell.override_kwargs().get("receiver")
        value: object = cell.label
        if receiver is None:
            parameter = "loss_model"
        elif receiver.packet_buffer != default.packet_buffer:
            parameter = "packet_buffer"
        elif receiver.max_playout_latency != default.max_playout_latency:
            parameter = "playout_deadline"
        if parameter == "packet_buffer":
            value = receiver.packet_buffer.capacity_packets
        elif parameter == "playout_deadline":
            value = receiver.max_playout_latency
        out.append((parameter, value, summary))
    return out


def render(rows: Sequence[Row]) -> str:
    return "Design-parameter sweeps (Converge, driving)\n" + format_table(
        ["parameter", "value", "FPS", "E2E ms", "drops", "freeze s"],
        [
            [parameter, value, s.average_fps, 1000 * s.e2e_mean,
             s.frame_drops, s.freeze_total]
            for parameter, value, s in points(rows)
        ],
    )
