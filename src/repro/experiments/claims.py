"""The paper's claims as data: each ordering judged over paired seeds.

The paper's results are orderings: Converge above WebRTC above naive
multipath (Fig. 3, Table 1), path-specific FEC above the table (Figs.
12-13, Table 5), the ablation deltas (Table 4).  :data:`CLAIMS` states
each one as a row: the cells of one seed (an experiment module's
``cells(...)`` or ``make_cell``), the metric, arm A and arm B (cell
labels), the side of B that A should lie on, and the smallest effect
that counts.

:func:`run_claims` runs every row's cells over seeds 1..N in one
:func:`~repro.experiments.runner.stream_cells` pass (a cell two rows
share runs once), keeps one float per (row, fidelity, arm, seed),
pairs the arms by seed (arms at one seed replay the same seeded
traces) and reduces the per-seed differences A - B with
:func:`~repro.analysis.stats.bootstrap_ci`, seeded from the row's name
and fidelity.  A row's entry is thus a pure function of its payloads:
byte-identical across reruns, pools, cache merges and whichever other
rows ran beside it.  The verdict per fidelity (:func:`verdict`):

- ``holds``: the interval lies beyond the smallest effect on the
  claimed side;
- ``inverted``: it lies beyond it on the other side;
- ``inconclusive``: anything else;
- ``unresolved-at-fidelity``: every per-seed difference is exactly 0,
  so this fidelity cannot tell the arms apart (flow on Table 5).

A grid that leaves an arm out at a fidelity (the flow model has no
NACK switch) gives that row no entry there.  ``repro claims`` is the
command; ``CLAIMS.json`` is its output at N = 20, and :func:`markdown`
renders EXPERIMENTS.md's summary table from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import bootstrap_ci
from repro.core.config import FecMode, SystemKind
from repro.experiments import (
    fig03_multipath_not_enough,
    fig09_10_wild,
    fig11_feedback,
    fig12_13_fec,
    fig14_15_comparison,
    fig16_17_stationary,
)
from repro.experiments.cache import ResultCache
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths, make_cell
from repro.experiments.runner import CellOutcome, RunStats, stream_cells

CONFIDENCE = 0.95
RESAMPLES = 1000
VERDICTS = ("holds", "inverted", "inconclusive", "unresolved-at-fidelity")
ABOVE, BELOW = 1, -1

# One seed's cells at one fidelity, called as ``grid(seed=, fidelity=)``.
Grid = Callable[..., List[Cell]]


@dataclass(frozen=True)
class Claim:
    """One ordering: on ``metric``, arm A lies ``direction`` of arm B
    by more than ``min_effect`` (in the metric's unit)."""

    name: str
    ref: str
    grid: Grid
    metric: str
    arms: Tuple[str, str]
    direction: int
    min_effect: float


def _ablation(seed: int, fidelity: Fidelity) -> List[Cell]:
    """Converge on driving, whole and without one component (DESIGN.md
    §7).  The flow model has no NACK switch, so at flow fidelity that
    arm is left out, as ``sweeps.cells`` leaves out its packet buffer."""
    arms: Dict[str, Dict[str, Any]] = {
        "converge": {},
        "no-feedback": {"qoe_feedback_enabled": False},
        "table-fec": {"fec_mode": FecMode.WEBRTC_TABLE},
        "no-fec": {"fec_mode": FecMode.NONE},
        "no-nack": {"nack_enabled": False},
    }
    if fidelity is Fidelity.FLOW:
        del arms["no-nack"]
    return [
        make_cell(
            ScenarioPaths("driving"), SystemKind.CONVERGE, seed=seed,
            duration=60.0, label=label, fidelity=fidelity, **overrides,
        )
        for label, overrides in arms.items()
    ]


def _fec(percent: int, mbps: int) -> Grid:
    return partial(
        fig12_13_fec.cells, 30.0, loss_percents=(percent,),
        capacities=(mbps * 1e6, mbps * 1e6),
    )


def _wild(scenario: str) -> Grid:
    return partial(
        fig09_10_wild.cells, 60.0, scenarios=(scenario,), stream_counts=(2,)
    )


_FIG3 = partial(fig03_multipath_not_enough.cells, 120.0, stream_counts=(3,))
_FIG11 = partial(fig11_feedback.cells, 120.0, num_seeds=1)
_FIG14 = partial(fig14_15_comparison.cells, 30.0)
_FIG16 = partial(fig16_17_stationary.cells, 60.0, stream_counts=(3,))
_TABLE = ("converge", "webrtc-table")
_SRTT = ("converge", "srtt")

CLAIMS: Tuple[Claim, ...] = (
    Claim("fig3b-freeze-vs-srtt", "Fig. 3b", _FIG3, "freeze_mean",
          _SRTT, BELOW, 0.05),
    Claim("fig3b-freeze-vs-webrtc", "Fig. 3b", _FIG3, "freeze_mean",
          ("converge", "webrtc"), BELOW, 0.05),
    Claim("fig3-fps-vs-srtt", "Fig. 3 prose", _FIG3, "average_fps",
          _SRTT, ABOVE, 0.5),
    Claim("fig3-drops-vs-srtt", "Fig. 3 prose", _FIG3, "frame_drops",
          _SRTT, BELOW, 5),
    Claim("fig3a-fps-vs-webrtc", "Fig. 3a", _FIG3, "average_fps",
          ("converge", "webrtc"), ABOVE, 0.5),
    Claim("fig3c-fec-vs-webrtc", "Fig. 3c", _FIG3, "fec_overhead",
          ("converge", "webrtc"), BELOW, 0.02),
    Claim("table1-drops-vs-webrtc", "Table 1", _FIG3, "frame_drops",
          ("converge", "webrtc"), BELOW, 5),
    Claim("table1-drops-vs-mrtp", "Table 1", _FIG3, "frame_drops",
          ("converge", "m-rtp"), BELOW, 5),
    Claim("table1-drops-webrtc-vs-mrtp", "Table 1", _FIG3, "frame_drops",
          ("webrtc", "m-rtp"), BELOW, 5),
    *(
        Claim(f"table5-{short}-{percent}pct-{mbps}mbps", "Table 5",
              _fec(percent, mbps), metric, _TABLE, BELOW, effect)
        for mbps in (15, 4)
        for percent in (1, 3, 5)
        for short, metric, effect in (
            ("drops", "frame_drops", 5), ("freeze", "freeze_total", 0.5),
            ("kfr", "keyframe_requests", 1),
        )
    ),
    Claim("fig12-overhead-1pct", "Fig. 12", _fec(1, 15), "fec_overhead",
          _TABLE, BELOW, 0.02),
    Claim("fig12-utilization-5pct", "Fig. 12", _fec(5, 15),
          "fec_utilization", _TABLE, ABOVE, 0.02),
    Claim("fig13-throughput-5pct", "Fig. 13", _fec(5, 15), "throughput_bps",
          _TABLE, ABOVE, 0.1e6),
    Claim("fig14-fps-vs-srtt", "Fig. 14a", _FIG14, "average_fps",
          _SRTT, ABOVE, 0.5),
    Claim("fig14-freeze-vs-srtt", "Fig. 14a", _FIG14, "freeze_total",
          _SRTT, BELOW, 0.5),
    Claim("fig14-drops-vs-srtt", "§6.3", _FIG14, "frame_drops",
          _SRTT, BELOW, 5),
    Claim("fig14-throughput-vs-srtt", "Fig. 14a", _FIG14, "throughput_bps",
          _SRTT, ABOVE, 0.1e6),
    Claim("fig14-qp-vs-srtt", "Fig. 14a", _FIG14, "average_qp",
          _SRTT, BELOW, 0.5),
    Claim("fig14-fec-vs-srtt", "Fig. 14b", _FIG14, "fec_overhead",
          _SRTT, BELOW, 0.02),
    Claim("fig14c-e2e-vs-srtt", "Fig. 14c", _FIG14, "e2e_p95",
          _SRTT, BELOW, 0.01),
    Claim("fig15-psnr-vs-srtt", "Fig. 15", _FIG14, "average_psnr",
          _SRTT, ABOVE, 0.2),
    Claim("fig9-throughput-vs-webrtc-w", "Fig. 9", _wild("walking"),
          "throughput_bps", ("converge", "webrtc-w"), ABOVE, 0.1e6),
    Claim("fig10-throughput-vs-webrtc-t", "Fig. 10", _wild("driving"),
          "throughput_bps", ("converge", "webrtc-t"), ABOVE, 0.1e6),
    Claim("fig10-throughput-vs-webrtc-v", "Fig. 10", _wild("driving"),
          "throughput_bps", ("converge", "webrtc-v"), ABOVE, 0.1e6),
    Claim("table3-fec-vs-webrtc-t", "Table 3", _wild("driving"),
          "fec_overhead", ("converge", "webrtc-t"), BELOW, 0.02),
    Claim("table4-drops-fade", "Table 4", _FIG11, "frame_drops",
          ("with-feedback", "without-feedback"), BELOW, 5),
    Claim("table4-freeze-fade", "Table 4", _FIG11, "freeze_total",
          ("with-feedback", "without-feedback"), BELOW, 0.5),
    Claim("fig16-throughput-vs-webrtc-w", "Fig. 16", _FIG16,
          "throughput_bps", ("converge", "webrtc-w"), ABOVE, 0.1e6),
    Claim("fig16-throughput-vs-webrtc-t", "Fig. 16", _FIG16,
          "throughput_bps", ("converge", "webrtc-t"), ABOVE, 0.1e6),
    *(
        Claim(f"ablation-{arm}", "Table 4 / §7", _ablation, "frame_drops",
              ("converge", arm), BELOW, 5)
        for arm in ("no-feedback", "table-fec", "no-fec", "no-nack")
    ),
    Claim("ablation-table-fec-overhead", "§7", _ablation, "fec_overhead",
          ("converge", "table-fec"), BELOW, 0.02),
)


def verdict(
    diffs: Sequence[float], lo: float, hi: float, direction: int,
    min_effect: float,
) -> str:
    """The row's verdict from its per-seed differences A - B and their
    interval ``[lo, hi]``."""
    if all(diff == 0 for diff in diffs):
        return "unresolved-at-fidelity"
    if direction == BELOW:
        lo, hi = -hi, -lo
    if lo > min_effect:
        return "holds"
    if hi < -min_effect:
        return "inverted"
    return "inconclusive"


# Arm A's and arm B's value at one seed; ``None`` where the cell failed.
Pair = Tuple[Optional[float], Optional[float]]


def _entry(
    claim: Claim, fidelity: Fidelity, pairs: Sequence[Pair]
) -> Dict[str, Any]:
    """One row at one fidelity: seeds paired, their differences reduced."""
    good = [(a, b) for a, b in pairs if a is not None and b is not None]
    diffs = [a - b for a, b in good]
    entry: Dict[str, Any] = {
        "n": len(diffs), "failed": len(pairs) - len(diffs),
    }
    if not diffs:
        return {**entry, "verdict": "inconclusive"}
    lo, hi = bootstrap_ci(
        diffs, confidence=CONFIDENCE, resamples=RESAMPLES,
        seed_label=f"claims/{claim.name}/{fidelity.value}",
    )
    return {
        **entry,
        "means": [sum(a for a, _ in good) / len(good),
                  sum(b for _, b in good) / len(good)],
        "mean": sum(diffs) / len(diffs),
        "ci": [lo, hi],
        "verdict": verdict(diffs, lo, hi, claim.direction, claim.min_effect),
    }


def run_claims(
    claims: Sequence[Claim],
    seeds: Sequence[int],
    fidelities: Sequence[Fidelity],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, "os.PathLike[str]", None] = None,
    progress: bool = False,
    cell_timeout: Optional[float] = None,
) -> Tuple[Dict[str, Any], RunStats]:
    """Judge ``claims`` over ``seeds`` at each fidelity; the runner
    arguments are ``run_cells``'s.  Returns the ``CLAIMS.json`` payload
    and the run's statistics (which the payload leaves out, so a warm
    rerun writes the same bytes)."""
    cells: List[Cell] = []
    # (row, fidelity, arm, seed index) of each cell, in ``cells`` order.
    slots: List[Tuple[int, int, int, int]] = []
    for f, fidelity in enumerate(fidelities):
        for i, claim in enumerate(claims):
            for k, seed in enumerate(seeds):
                for cell in claim.grid(seed=seed, fidelity=fidelity):
                    if cell.effective_label in claim.arms:
                        arm = claim.arms.index(cell.effective_label)
                        cells.append(cell)
                        slots.append((i, f, arm, k))
    values: Dict[Tuple[int, int, int, int], float] = {}

    def keep(outcome: CellOutcome, positions: Sequence[int]) -> None:
        if outcome.summary is not None:
            for index in positions:
                metric = claims[slots[index][0]].metric
                values[slots[index]] = float(outcome.summary.summary[metric])

    stats = stream_cells(
        cells, keep, jobs=jobs, cache=cache, progress=progress,
        cell_timeout=cell_timeout,
    )
    armed = {slot[:3] for slot in slots}
    rows: List[Dict[str, Any]] = []
    for i, claim in enumerate(claims):
        row: Dict[str, Any] = {
            "name": claim.name,
            "ref": claim.ref,
            "metric": claim.metric,
            "arms": list(claim.arms),
            "direction": "above" if claim.direction == ABOVE else "below",
            "min_effect": claim.min_effect,
        }
        for f, fidelity in enumerate(fidelities):
            row[fidelity.value] = (
                _entry(claim, fidelity, [
                    (values.get((i, f, 0, k)), values.get((i, f, 1, k)))
                    for k in range(len(seeds))
                ])
                if (i, f, 0) in armed and (i, f, 1) in armed else None
            )
        rows.append(row)
    payload: Dict[str, Any] = {
        "seeds": list(seeds),
        "confidence": CONFIDENCE,
        "resamples": RESAMPLES,
        "claims": rows,
    }
    return payload, stats


# Shown in another unit than the payload's: metric -> (unit, scale).
_DISPLAY = {"throughput_bps": (" Mbps", 1e-6)}


def _verdict_text(entry: Optional[Dict[str, Any]], scale: float) -> str:
    if entry is None:
        return "not modelled"
    if entry["n"] == 0:
        return f"{entry['verdict']} (every seed failed)"
    lo, hi = entry["ci"]
    text = (
        f"{entry['verdict']} {scale * entry['mean']:+.2f} "
        f"[{scale * lo:+.2f}, {scale * hi:+.2f}]"
    )
    if entry["failed"]:
        text += f" ({entry['failed']} seeds failed)"
    return text


def markdown(payload: Dict[str, Any]) -> str:
    """The summary table: one line per row, the A - B interval and
    verdict at each fidelity the payload holds."""
    fidelities = [
        f.value for f in Fidelity
        if any(f.value in row for row in payload["claims"])
    ]
    lines = [
        "| Claim | Paper | Metric | A vs B | "
        + " | ".join(f"{f} A - B [95% CI]" for f in fidelities) + " |",
        "| --- | --- | --- | --- |" + " --- |" * len(fidelities),
    ]
    for row in payload["claims"]:
        unit, scale = _DISPLAY.get(row["metric"], ("", 1.0))
        side = ">" if row["direction"] == "above" else "<"
        effect = f"{scale * row['min_effect']:g}{unit}"
        lines.append(
            f"| {row['name']} | {row['ref']} | {row['metric']} | "
            f"{row['arms'][0]} {side} {row['arms'][1]} by > {effect} | "
            + " | ".join(_verdict_text(row.get(f), scale) for f in fidelities)
            + " |"
        )
    return "\n".join(lines)
