"""High-level public API: build and run conference calls."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence

from repro.core.config import CallConfig, FecMode, SystemKind
from repro.core.session import CallResult, ConferenceCall
from repro.faults.plan import FaultPlan
from repro.net.path import PathConfig
from repro.simulation.profiling import SimProfiler
from repro.scheduling import (
    ConnectionMigrationScheduler,
    ConvergeScheduler,
    MinRttScheduler,
    MprtpScheduler,
    Scheduler,
    SinglePathScheduler,
    ThroughputScheduler,
)


def build_scheduler(config: CallConfig) -> Scheduler:
    """Instantiate the scheduler matching ``config.system``."""
    system = config.system
    if system is SystemKind.CONVERGE:
        return ConvergeScheduler()
    if system is SystemKind.WEBRTC:
        return SinglePathScheduler(config.single_path_id)
    if system is SystemKind.WEBRTC_CM:
        return ConnectionMigrationScheduler(config.single_path_id)
    if system is SystemKind.SRTT:
        return MinRttScheduler()
    if system is SystemKind.MTPUT:
        return ThroughputScheduler()
    if system is SystemKind.MRTP:
        return MprtpScheduler()
    raise ValueError(f"unknown system: {system}")


def build_call_config(
    system: SystemKind,
    duration: float = 60.0,
    num_streams: int = 1,
    seed: int = 1,
    single_path_id: int = 0,
    qoe_feedback_enabled: Optional[bool] = None,
    fec_mode: Optional[FecMode] = None,
    label: Optional[str] = None,
    **kwargs: Any,
) -> CallConfig:
    """A :class:`CallConfig` with the paper's per-system defaults.

    Converge gets path-specific FEC and QoE feedback; every other
    system gets WebRTC's table FEC and no QoE feedback — matching the
    baseline setups of §5 ("all of these variants utilize WebRTC's
    default FEC module and lack video-aware prioritization").
    """
    if fec_mode is None:
        fec_mode = (
            FecMode.CONVERGE
            if system is SystemKind.CONVERGE
            else FecMode.WEBRTC_TABLE
        )
    if qoe_feedback_enabled is None:
        qoe_feedback_enabled = system is SystemKind.CONVERGE
    kwargs.setdefault(
        "encoder_utilization",
        0.85 if system is SystemKind.CONVERGE else 0.97,
    )
    return CallConfig(
        system=system,
        fec_mode=fec_mode,
        duration=duration,
        num_streams=num_streams,
        seed=seed,
        single_path_id=single_path_id,
        qoe_feedback_enabled=qoe_feedback_enabled,
        label=label,
        **kwargs,
    )


def run_call(
    config: CallConfig,
    path_configs: Sequence[PathConfig],
    scheduler: Optional[Scheduler] = None,
    fault_plan: Optional[FaultPlan] = None,
    profiler: Optional[SimProfiler] = None,
    churn_scenario: Optional[str] = None,
) -> CallResult:
    """Run one simulated conference call and return its QoE result.

    ``fault_plan`` optionally injects a :class:`repro.faults.FaultPlan`
    of network/feedback faults into the call's paths.  ``profiler``
    optionally attaches a :class:`repro.simulation.SimProfiler` that
    accounts wall time per subsystem (at some dispatch overhead).
    ``churn_scenario`` names the trace scenario used to synthesize
    paths born mid-call when the plan carries churn BIRTH events.

    The cyclic garbage collector is paused for the call
    (:func:`collector_paused`).
    """
    paths: List[PathConfig] = list(path_configs)
    if not paths:
        raise ValueError("a call needs at least one path")
    with collector_paused():
        if scheduler is None:
            scheduler = build_scheduler(config)
        call = ConferenceCall(
            config,
            paths,
            scheduler,
            fault_plan=fault_plan,
            profiler=profiler,
            churn_scenario=churn_scenario,
        )
        result = call.run()
        del call
    return result


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one call, packet or flow.

    Paused from before the call is built until after it is dropped
    (and left as found if it was already off): a call allocates tens to
    hundreds of thousands of objects and the only cyclic garbage among
    them is, at most, the call itself (a flow call makes none), so the
    collector's passes in between free nothing.  Paused from the start,
    the whole call graph is still in the youngest generation when it
    dies, and one young collection on the way out frees it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.collect(0)
            gc.enable()
