"""Canned chaos scenarios: named fault plans for CLI and experiments.

Each builder returns a :class:`FaultPlan` scaled to the call duration.
They are registered in :data:`CHAOS_SCENARIOS` and exposed through
``repro run --chaos <name>`` and a cell's ``chaos`` field
(:func:`repro.experiments.common.run_cell`).  Builders take the call
``duration``, the experiment ``seed`` (used only by the randomized
scenario, via a named stream so plans stay reproducible), and the
number of paths in the call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.faults.plan import (
    ChurnAction,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PathChurnEvent,
)
from repro.simulation.random import RandomStreams

ChaosBuilder = Callable[[float, int, int], FaultPlan]

CHAOS_SCENARIOS: Dict[str, ChaosBuilder] = {}


def register(name: str) -> Callable[[ChaosBuilder], ChaosBuilder]:
    def wrap(builder: ChaosBuilder) -> ChaosBuilder:
        CHAOS_SCENARIOS[name] = builder
        return builder

    return wrap


def build_chaos_plan(
    name: str, duration: float, seed: int = 1, num_paths: int = 2
) -> FaultPlan:
    """Instantiate the named chaos scenario for a call."""
    if name not in CHAOS_SCENARIOS:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise ValueError(f"unknown chaos scenario {name!r} (known: {known})")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if num_paths < 1:
        raise ValueError("need at least one path")
    return CHAOS_SCENARIOS[name](duration, seed, num_paths)


def chaos_scenario_names() -> List[str]:
    return sorted(CHAOS_SCENARIOS)


def _second_path(num_paths: int) -> int:
    return 1 if num_paths > 1 else 0


@register("rtcp-blackout")
def rtcp_blackout(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """3 s reverse-channel blackout on path 0 (the acceptance fault).

    Media keeps flowing forward; only the control loop goes dark.  The
    sender must notice the silence itself, demote the path, and
    re-admit it via backoff probes once feedback returns.
    """
    start = min(duration * 0.3, max(duration - 6.0, 1.0))
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.FEEDBACK_BLACKOUT,
                path_id=0,
                start=start,
                duration=min(3.0, duration * 0.2),
            )
        ]
    )


@register("rtcp-lossy")
def rtcp_lossy(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """30% RTCP loss on every path for the middle half of the call."""
    start = duration * 0.25
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.FEEDBACK_LOSS,
                path_id=path_id,
                start=start,
                duration=duration * 0.5,
                magnitude=0.3,
            )
            for path_id in range(num_paths)
        ]
    )


@register("midcall-blackout")
def midcall_blackout(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """Forward blackout of the second path for 5 s mid-call."""
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.BLACKOUT,
                path_id=_second_path(num_paths),
                start=duration * 0.3,
                duration=min(5.0, duration * 0.25),
            )
        ]
    )


@register("loss-storm")
def loss_storm(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """30% forward loss on the second path for a quarter of the call."""
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.LOSS_STORM,
                path_id=_second_path(num_paths),
                start=duration * 0.3,
                duration=duration * 0.25,
                magnitude=0.3,
            )
        ]
    )


@register("delay-spike")
def delay_spike(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """+150 ms one-way delay on path 0 for 5 s (route change / handover)."""
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.DELAY_SPIKE,
                path_id=0,
                start=duration * 0.4,
                duration=min(5.0, duration * 0.2),
                magnitude=0.15,
            )
        ]
    )


@register("queue-flap")
def queue_flap(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """The second path's bottleneck queue flaps down to 8 kB, thrice."""
    path_id = _second_path(num_paths)
    window = duration / 8
    events = []
    for i in range(3):
        events.append(
            FaultEvent(
                kind=FaultKind.QUEUE_FLAP,
                path_id=path_id,
                start=duration * 0.2 + i * 2 * window,
                duration=window,
                magnitude=8_000,
            )
        )
    return FaultPlan.of(events)


@register("handover")
def handover(
    duration: float,
    seed: int,
    num_paths: int,
    target_path: Optional[int] = None,
) -> FaultPlan:
    """A cellular handover: blackout, then a delay spike.

    The affected path is parameterized: pass ``target_path``
    explicitly, or let the seed pick one — real handovers do not
    conveniently always hit the first interface.
    """
    if target_path is None:
        target_path = seed % num_paths
    if not 0 <= target_path < num_paths:
        raise ValueError(
            f"target_path {target_path} out of range for {num_paths} paths"
        )
    start = duration * 0.35
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.BLACKOUT,
                path_id=target_path,
                start=start,
                duration=1.5,
            ),
            FaultEvent(
                kind=FaultKind.DELAY_SPIKE,
                path_id=target_path,
                start=start + 1.5,
                duration=3.0,
                magnitude=0.08,
            ),
        ]
    )


@register("uplink-death")
def uplink_death(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """Forward AND reverse blackout of path 0 together: the radio died.

    LoLa-style cellular blackout — the uplink carrying RTCP dies with
    the downlink, so the sender loses both media delivery and the
    signal that would have told it so.
    """
    start = duration * 0.3
    window = min(4.0, duration * 0.2)
    return FaultPlan.of(
        [
            FaultEvent(
                kind=FaultKind.BLACKOUT,
                path_id=0,
                start=start,
                duration=window,
            ),
            FaultEvent(
                kind=FaultKind.FEEDBACK_BLACKOUT,
                path_id=0,
                start=start,
                duration=window,
            ),
        ]
    )


@register("path-churn")
def path_churn(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """Sustained membership churn: drains, abrupt deaths, and births.

    The schedule walks the call through every lifecycle transition:
    a graceful drain of the second path, an abrupt death of the
    first, and two mid-call births that must bootstrap from nothing.
    Birth networks name the ``migration`` trace scenario's WiFi / LTE
    profiles; under any other scenario the call substitutes a profile
    the scenario actually has, so churn composes with every trace.
    """
    churn: List[PathChurnEvent] = []
    if num_paths > 1:
        churn.append(
            PathChurnEvent(
                action=ChurnAction.DRAIN,
                path_id=_second_path(num_paths),
                time=duration * 0.2,
            )
        )
    churn.extend(
        [
            PathChurnEvent(
                action=ChurnAction.BIRTH,
                path_id=num_paths,
                time=duration * 0.35,
                network="lte",
            ),
            PathChurnEvent(
                action=ChurnAction.DEATH, path_id=0, time=duration * 0.5
            ),
            PathChurnEvent(
                action=ChurnAction.BIRTH,
                path_id=num_paths + 1,
                time=duration * 0.65,
                network="wifi",
            ),
            PathChurnEvent(
                action=ChurnAction.DEATH,
                path_id=num_paths,
                time=duration * 0.8,
            ),
        ]
    )
    return FaultPlan(churn=churn)


@register("wifi-lte-migration")
def wifi_lte_migration(
    duration: float, seed: int, num_paths: int
) -> FaultPlan:
    """WiFi -> LTE migration: the LTE path attaches, then WiFi dies.

    Models walking out of WiFi coverage with make-before-break: the
    cellular interface comes up first (BIRTH), the WiFi path vanishes
    abruptly a beat later (DEATH — no time for a graceful drain, the
    radio is simply gone).  The call must carry every in-flight packet
    of the dead path over to the newborn survivor.
    """
    return FaultPlan(
        churn=[
            PathChurnEvent(
                action=ChurnAction.BIRTH,
                path_id=num_paths,
                time=duration * 0.35,
                network="lte",
            ),
            PathChurnEvent(
                action=ChurnAction.DEATH, path_id=0, time=duration * 0.55
            ),
        ]
    )


@register("chaos-monkey")
def chaos_monkey(duration: float, seed: int, num_paths: int) -> FaultPlan:
    """A seeded random barrage of faults across all paths.

    Draws from a named random stream so the same seed always produces
    the same plan (the determinism contract benchmarks rely on).
    """
    rng = RandomStreams(seed).stream("chaos-monkey")
    kinds = [
        FaultKind.BLACKOUT,
        FaultKind.LOSS_STORM,
        FaultKind.DELAY_SPIKE,
        FaultKind.QUEUE_FLAP,
        FaultKind.FEEDBACK_BLACKOUT,
        FaultKind.FEEDBACK_LOSS,
    ]
    events: List[FaultEvent] = []
    # Per (kind, path) cursor keeps same-kind windows non-overlapping.
    cursors: Dict[tuple, float] = {}
    num_faults = max(int(duration / 8), 1)
    for _ in range(num_faults * num_paths):
        kind = rng.choice(kinds)
        path_id = rng.randrange(num_paths)
        window = rng.uniform(1.0, 4.0)
        earliest = cursors.get((kind, path_id), 1.0)
        latest = duration - window - 1.0
        if latest <= earliest:
            continue
        start = rng.uniform(earliest, latest)
        cursors[(kind, path_id)] = start + window + 0.5
        magnitude = 0.0
        if kind is FaultKind.LOSS_STORM:
            magnitude = rng.uniform(0.1, 0.4)
        elif kind is FaultKind.FEEDBACK_LOSS:
            magnitude = rng.uniform(0.2, 0.6)
        elif kind is FaultKind.DELAY_SPIKE:
            magnitude = rng.uniform(0.05, 0.2)
        elif kind is FaultKind.QUEUE_FLAP:
            magnitude = rng.uniform(4_000, 32_000)
        events.append(
            FaultEvent(
                kind=kind,
                path_id=path_id,
                start=start,
                duration=window,
                magnitude=magnitude,
            )
        )
    return FaultPlan.of(events)
