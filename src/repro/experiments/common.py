"""Shared plumbing for the experiment modules.

Two layers live here:

- direct helpers (:func:`run_system`, :func:`run_chaos`) that build
  and run one call in-process — used by unit tests and examples that
  need the full :class:`~repro.core.session.CallResult` object;
- path builders (:func:`scenario_paths`, :func:`constant_paths`) that
  the declarative cell specs of :mod:`repro.experiments.cells` resolve
  inside worker processes.

The figure modules do not call :func:`run_system`: each states its
grid as a :class:`~repro.experiments.cells.Cell` list and
:func:`repro.experiments.figures.run_experiment` executes it through
the runner, which fans independent cells across processes and
memoizes each one in the on-disk result cache.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.api import build_call_config, run_call
from repro.core.config import SystemKind
from repro.core.session import CallResult
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import build_chaos_plan
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.simulation.random import RandomStreams
from repro.traces.scenarios import get_scenario, scenario_path

# Default call length for experiments.  The paper uses 3-minute calls;
# benches default to a shorter window for iteration speed (set
# full_length=True or duration=180 for paper-length runs).
DEFAULT_DURATION = 60.0


def scenario_paths(
    scenario: str,
    duration: float,
    seed: int,
    networks: Optional[Sequence[str]] = None,
) -> List[PathConfig]:
    """Build the emulated paths for one Appendix-D scenario."""
    streams = RandomStreams(seed)
    names = list(networks) if networks else list(get_scenario(scenario).networks)
    return [
        scenario_path(scenario, network, index, duration, streams)
        for index, network in enumerate(names)
    ]


def constant_paths(
    capacities_bps: Sequence[float],
    propagation_delays: Sequence[float],
    loss_rates: Sequence[float],
    names: Optional[Sequence[str]] = None,
) -> List[PathConfig]:
    """Fixed-capacity paths for the controlled experiments (§6.2)."""
    if not (
        len(capacities_bps) == len(propagation_delays) == len(loss_rates)
    ):
        raise ValueError("per-path parameter lists must align")
    configs: List[PathConfig] = []
    for index, (bps, delay, loss) in enumerate(
        zip(capacities_bps, propagation_delays, loss_rates)
    ):
        loss_model: LossModel = BernoulliLoss(loss) if loss > 0 else NoLoss()
        configs.append(
            PathConfig(
                path_id=index,
                trace=BandwidthTrace.constant(bps),
                propagation_delay=delay,
                loss_model=loss_model,
                name=names[index] if names else f"path-{index}",
            )
        )
    return configs


def run_system(
    system: SystemKind,
    path_configs: Sequence[PathConfig],
    duration: float,
    num_streams: int = 1,
    seed: int = 1,
    single_path_id: int = 0,
    label: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    churn_scenario: Optional[str] = None,
    **config_kwargs: Any,
) -> CallResult:
    """Run one system on the given paths and return its result."""
    config = build_call_config(
        system,
        duration=duration,
        num_streams=num_streams,
        seed=seed,
        single_path_id=single_path_id,
        label=label,
        **config_kwargs,
    )
    return run_call(
        config,
        path_configs,
        fault_plan=fault_plan,
        churn_scenario=churn_scenario,
    )


def run_chaos(
    system: SystemKind,
    scenario: str,
    chaos: str,
    duration: float = DEFAULT_DURATION,
    num_streams: int = 1,
    seed: int = 1,
    networks: Optional[Sequence[str]] = None,
    **config_kwargs: Any,
) -> CallResult:
    """Run one system through an Appendix-D scenario under a canned
    chaos plan (see :mod:`repro.faults.scenarios`)."""
    paths = scenario_paths(scenario, duration, seed, networks)
    plan = build_chaos_plan(
        chaos, duration, seed=seed, num_paths=len(paths)
    )
    return run_system(
        system,
        paths,
        duration,
        num_streams=num_streams,
        seed=seed,
        label=f"{system.value}+{chaos}",
        fault_plan=plan,
        churn_scenario=scenario,
        **config_kwargs,
    )
