"""Figure 11 + Table 4: the benefit of QoE feedback (§6.2).

Controlled environment: Path 1 holds ~25 Mbps; Path 2 starts equal but
collapses to 0.5-2.5 Mbps during t in [30, 90).  Converge runs with
and without the QoE feedback loop.  Reported:

- received-rate / IFD / FCD time series (Fig. 11 b-d),
- Table 4: frame drops, freeze duration, keyframe requests.

Expected shape: without feedback both paths keep being used through
the fade, IFD and FCD blow up and frames drop; with feedback the IFD
returns to the ~33 ms target quickly and only a handful of frames are
lost.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

from repro.analysis.plots import render_series
from repro.core.config import SystemKind
from repro.experiments.cells import BuilderPaths, Cell, Fidelity, make_cell
from repro.experiments.figures import Row
from repro.experiments.runner import CellSummary
from repro.metrics.report import format_table
from repro.net.loss import BernoulliLoss, ScheduledLoss
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace

# The two arms: cell label -> qoe_feedback_enabled.
ARMS = {"with-feedback": True, "without-feedback": False}


def fig11_paths(
    duration: float,
    fade_start: float = 30.0,
    fade_end: float = 90.0,
    fade_low_bps: float = 0.5e6,
    fade_high_bps: float = 2.5e6,
    oscillation_period: float = 4.0,
    fade_loss: float = 0.06,
) -> List[PathConfig]:
    """The Fig. 11(a) network: stable path 1, collapsing path 2.

    During the fade the paper's path 2 oscillates between roughly 0.5
    and 2.5 Mbps; the oscillation matters — a congestion controller
    can settle onto a constant residual capacity, but it chases a
    moving one, which is exactly the condition QoE feedback rescues.
    """
    fade_start = min(fade_start, duration)
    fade_end = min(fade_end, duration)
    path1 = PathConfig(
        path_id=0,
        trace=BandwidthTrace.constant(25e6),
        propagation_delay=0.02,
        loss_model=BernoulliLoss(0.001),
        name="path-1-stable",
    )
    samples = [(0.0, 25e6)]
    t = fade_start
    low_phase = True
    while t < fade_end:
        samples.append((t, fade_low_bps if low_phase else fade_high_bps))
        low_phase = not low_phase
        t += oscillation_period / 2
    samples.append((fade_end, 25e6))
    path2 = PathConfig(
        path_id=1,
        trace=BandwidthTrace(samples),
        propagation_delay=0.02,
        # The coverage hole also loses packets over the air; the rate
        # sits in GCC's hold band (2-10%) so congestion control alone
        # does not vacate the path — QoE feedback has to.
        loss_model=ScheduledLoss(
            [(0.0, 0.001), (fade_start, fade_loss), (fade_end, 0.001)]
        ),
        name="path-2-fading",
    )
    return [path1, path2]


def cells(
    duration: float = 120.0,
    seed: int = 1,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    num_seeds: int = 3,
) -> List[Cell]:
    """Both arms crossed with the seed set, as one flat cell list."""
    return [
        make_cell(
            BuilderPaths("repro.experiments.fig11_feedback:fig11_paths"),
            SystemKind.CONVERGE,
            seed=cell_seed,
            duration=duration,
            label=label,
            fidelity=fidelity,
            qoe_feedback_enabled=feedback_enabled,
        )
        for label, feedback_enabled in ARMS.items()
        for cell_seed in range(seed, seed + num_seeds)
    ]


def arms(rows: Sequence[Row]) -> Dict[str, List[CellSummary]]:
    """Each arm's summaries, one per seed in seed order."""
    return {
        label: [summary for _, summary in rows if summary.label == label]
        for label in ARMS
    }


def seed_means(summaries: Sequence[CellSummary]) -> Dict[str, float]:
    """Table 4 for one arm: each QoE parameter averaged over its seeds.

    The fade-onset damage (frames already in flight when capacity
    collapses) is luck-of-the-draw per seed, so the Table 4 numbers
    average a few runs.
    """

    def mean(read: Callable[[CellSummary], float]) -> float:
        return sum(read(s) for s in summaries) / len(summaries)

    return {
        "frame_drops": int(mean(lambda s: s.frame_drops)),
        "freeze_total": mean(lambda s: s.freeze_total),
        "keyframe_requests": int(mean(lambda s: s.keyframe_requests)),
        "mean_ifd": mean(lambda s: s.series_mean("ifd")),
        "mean_fcd": mean(lambda s: s.series_mean("fcd")),
        "throughput_bps": mean(lambda s: s.throughput_bps),
    }


def render(rows: Sequence[Row]) -> str:
    """Table 4 over the seed means; the Fig. 11(b) received-rate chart
    of each arm's first seed."""
    by_arm = arms(rows)
    means = [seed_means(by_arm[label]) for label in ARMS]
    table4 = format_table(
        ["QoE parameter", *ARMS],
        [
            ["frame drops"] + [m["frame_drops"] for m in means],
            ["freeze duration (s)"] + [m["freeze_total"] for m in means],
            ["keyframe requests"] + [m["keyframe_requests"] for m in means],
            ["mean IFD (ms)"] + [1000 * m["mean_ifd"] for m in means],
            ["mean FCD (ms)"] + [1000 * m["mean_fcd"] for m in means],
            ["throughput (Mbps)"] + [m["throughput_bps"] / 1e6 for m in means],
        ],
    )
    charts = "\n\n".join(
        render_series(
            [
                (t, v / 1e6)
                for t, v in by_arm[label][0].series_pairs("receive_rate")
            ],
            height=5,
            title=f"received rate Mbps ({label})",
        )
        for label in ARMS
    )
    return (
        "Figure 11 / Table 4 — the benefit of QoE feedback\n"
        + table4
        + "\n\n"
        + charts
    )
