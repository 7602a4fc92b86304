"""Figures 20-22: the Appendix D traffic traces.

The paper plots the capacity dynamics of each network in the
stationary, walking and driving scenarios.  The reproduction's
synthetic generators target the same envelopes; this harness reports
per-trace summary statistics (mean, p10, minimum, outage fraction,
fraction below the 10 Mbps per-stream requirement) so the generated
traces can be validated against the published shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.metrics.report import format_table
from repro.simulation.random import RandomStreams
from repro.traces.scenarios import get_scenario, make_scenario_trace

SCENARIOS = ("stationary", "walking", "driving")
REQUIRED_BPS = 10e6
OUTAGE_BPS = 1e6


@dataclass
class TraceStats:
    scenario: str
    network: str
    mean_mbps: float
    p10_mbps: float
    min_mbps: float
    outage_fraction: float
    below_required_fraction: float


def rows(duration: float = 180.0, seed: int = 1) -> List[TraceStats]:
    """One row per scenario network.  Pure trace generation: no calls
    are simulated, so this experiment has no ``cells`` for the runner."""
    streams = RandomStreams(seed)
    stats: List[TraceStats] = []
    for scenario in SCENARIOS:
        for network in get_scenario(scenario).networks:
            trace = make_scenario_trace(scenario, network, duration, streams)
            values = sorted(v for _, v in trace.samples())
            n = len(values)
            stats.append(
                TraceStats(
                    scenario=scenario,
                    network=network,
                    mean_mbps=sum(values) / n / 1e6,
                    p10_mbps=values[int(0.1 * n)] / 1e6,
                    min_mbps=values[0] / 1e6,
                    outage_fraction=sum(v < OUTAGE_BPS for v in values) / n,
                    below_required_fraction=sum(
                        v < REQUIRED_BPS for v in values
                    )
                    / n,
                )
            )
    return stats


def render(rows: Sequence[TraceStats]) -> str:
    return "Figures 20-22 — scenario trace statistics\n" + format_table(
        ["scenario", "network", "mean Mbps", "p10 Mbps", "min Mbps",
         "outage frac", "frac<10Mbps"],
        [
            [s.scenario, s.network, s.mean_mbps, s.p10_mbps, s.min_mbps,
             s.outage_fraction, s.below_required_fraction]
            for s in rows
        ],
    )
