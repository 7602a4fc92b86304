"""Shared plumbing for the experiment modules.

Two layers live here:

- :func:`run_cell`, the one way a declarative
  :class:`~repro.experiments.cells.Cell` becomes a call: it builds the
  cell's paths, chaos plan and config, runs it at the cell's fidelity
  and returns the full :class:`~repro.core.session.CallResult`.  The
  runner's worker entry point is ``result_to_dict(run_cell(cell))``;
  tests and examples that need the live result call it directly;
- path builders (:func:`scenario_paths`, :func:`constant_paths`) that
  the cell specs of :mod:`repro.experiments.cells` resolve inside
  worker processes.

The figure modules state their grids as cell lists, and
:func:`repro.experiments.figures.run_experiment` executes them through
the runner, which fans independent cells across processes and
memoizes each one in the on-disk result cache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.api import build_call_config, run_call
from repro.core.session import CallResult
from repro.experiments.cells import Cell, Fidelity, ScenarioPaths
from repro.faults.scenarios import build_chaos_plan
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.simulation.profiling import SimProfiler
from repro.simulation.random import RandomStreams
from repro.traces.scenarios import get_scenario, scenario_path


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


def run_cell(cell: Cell, profiler: Optional[SimProfiler] = None) -> CallResult:
    """Run one cell to completion and return its live result.

    Everything stochastic is derived from ``cell.seed`` inside this
    function (paths, fault plans, the simulator's streams), so the
    result depends only on the cell — the property the whole runner
    rests on.

    ``profiler`` optionally attaches a
    :class:`repro.simulation.SimProfiler` to the call (used by
    ``repro profile``, which runs cells serially in-process).
    """
    path_configs = cell.paths.build(cell.duration, cell.seed)
    fault_plan = None
    label = cell.label
    if cell.chaos is not None:
        fault_plan = build_chaos_plan(
            cell.chaos, cell.duration, seed=cell.seed,
            num_paths=len(path_configs),
        )
        if label is None:
            label = f"{cell.system.value}+{cell.chaos}"
    config = build_call_config(
        cell.system,
        duration=cell.duration,
        num_streams=cell.num_streams,
        seed=cell.seed,
        single_path_id=cell.single_path_id,
        label=label,
        **cell.override_kwargs(),
    )
    # Churn BIRTH events need a trace scenario to synthesize the new
    # path's capacity/loss; scenario cells carry one naturally.
    churn_scenario = (
        cell.paths.scenario if isinstance(cell.paths, ScenarioPaths) else None
    )
    if cell.fidelity is Fidelity.FLOW:
        # Frame-interval backend; the profiler hooks the packet-level
        # event loop, so profiling is a packet-fidelity-only feature.
        from repro.flow.session import run_flow_call

        return run_flow_call(
            config,
            path_configs,
            fault_plan=fault_plan,
            churn_scenario=churn_scenario,
        )
    return run_call(
        config,
        path_configs,
        fault_plan=fault_plan,
        profiler=profiler,
        churn_scenario=churn_scenario,
    )
