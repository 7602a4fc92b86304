"""The traced run: per-layer metrics, measured from outside.

Nothing in ``src/repro`` is instrumented.  Every number here comes from
timing a call the benchmark makes into a layer's public function —
``execute_cell``, ``run_cells``, ``execute_batch``, ``ResultCache``,
``run_call`` / ``run_flow_call``, ``SimProfiler`` through the existing
``profiler=`` argument — with a span (``spans.py``) around it.

One traced run for workload *W* has two parts:

1. *W itself*: real untraced passes alternate with traced *replica*
   passes (the first real pass is also the burn-in; the fastest
   counts), which redo the pass step by step so that a span can sit on
   each layer boundary.  Their difference is the
   tracing overhead; the part of the real pass wall that the replica's
   leaf spans do not cover is the residual; the replica's counters give
   the shares and failure counts.  These metrics depend on *W*.
2. *Probes*: fixed fixtures drawn from the four workloads' own cells,
   the same whichever *W* was asked for, one per layer group.  They
   give every ``<layer>.*`` cost, so each traced run reports every
   per-layer metric.

End-to-end numbers never come from this module.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import calibrate
import numpy as np
from spans import Span, Tracer, duration
from workloads import (
    CACHE_SHARDS,
    POOL_JOBS,
    SCALES,
    WORKLOADS,
    Scale,
    Workload,
    cache_spec,
    fleet_spec,
    flow_cell_groups,
    golden_names,
    packet_cells,
    payload_digest,
    reference_cell,
)

from repro.analysis.export import result_to_dict
from repro.core.api import build_call_config, run_call
from repro.core.config import SystemKind
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    Cell,
    Fidelity,
    ScenarioPaths,
    canonical_json,
    cell_key,
)
from repro.experiments.common import scenario_paths
from repro.experiments.fleet import FleetSpec, expand_fleet, fleet_statistics
from repro.experiments.runner import CellSummary, execute_cell, run_cells
from repro.faults.scenarios import build_chaos_plan
from repro.flow.batch import execute_batch, plan_batches
from repro.flow.link import FlowLink
from repro.flow.session import run_flow_call
from repro.net.path import Path as NetPath
from repro.simulation.events import EventQueue
from repro.simulation.profiling import SimProfiler
from repro.simulation.simulator import Simulator

TRACED_PASSES = 2
BATCH_WIDTHS = (1, 8, 32, 128, 512)
PACKET_PROBE_STRIDE = 3
QUEUE_EVENTS_CAP = 100_000
PATH_PACKETS = 20_000
LINK_REPEATS = 20
KEY_CELLS = 200
FRAME_RATE = build_call_config(SystemKind.CONVERGE).frame_rate

Counters = Dict[str, int]
Check = Tuple[str, bool]


def new_counters() -> Counters:
    return {"offered": 0, "batched": 0, "lookups": 0, "hits": 0,
            "retries": 0, "timeouts": 0, "quarantined": 0}


def mean_ms(spans: Sequence[Span]) -> float:
    if not spans:
        return 0.0
    return 1e3 * sum(duration(s) for s in spans) / len(spans)


# ---------------------------------------------------------------------------
# Step-by-step replicas: the same calls the program makes, one span each


def replica_execute_cell(
    cell: Cell, tracer: Tracer, profiler: Optional[SimProfiler] = None
) -> Dict[str, Any]:
    """``runner.execute_cell`` redone call by call (checked equal to it)."""
    with tracer.span("traces.build"):
        path_configs = cell.paths.build(cell.duration, cell.seed)
    fault_plan = None
    label = cell.label
    if cell.chaos is not None:
        with tracer.span("faults.build_chaos_plan"):
            fault_plan = build_chaos_plan(
                cell.chaos, cell.duration, seed=cell.seed,
                num_paths=len(path_configs),
            )
        if label is None:
            label = f"{cell.system.value}+{cell.chaos}"
    with tracer.span("core.build_call_config"):
        config = build_call_config(
            cell.system, duration=cell.duration,
            num_streams=cell.num_streams, seed=cell.seed,
            single_path_id=cell.single_path_id, label=label,
            **cell.override_kwargs(),
        )
    churn_scenario = (
        cell.paths.scenario if isinstance(cell.paths, ScenarioPaths) else None
    )
    if cell.fidelity is Fidelity.FLOW:
        name = "flow.run_flow_call"
        if cell.num_streams > 1:
            name += ".multistream"
        with tracer.span(name):
            result = run_flow_call(
                config, path_configs, fault_plan=fault_plan,
                churn_scenario=churn_scenario,
            )
    else:
        with tracer.span("core.run_call"):
            result = run_call(
                config, path_configs, fault_plan=fault_plan,
                profiler=profiler, churn_scenario=churn_scenario,
            )
    with tracer.span("analysis.result_to_dict"):
        return result_to_dict(result)


def replica_check(fidelity: Fidelity) -> Check:
    """The replica equals ``execute_cell`` on a reference cell of this
    fidelity; the untraced run counts it among its output checks."""
    name = golden_names()[0]
    replica = replica_execute_cell(
        reference_cell(name, fidelity), Tracer("check")
    )
    real = execute_cell(reference_cell(name, fidelity))
    return (
        f"replica-equals-execute_cell:{fidelity.value}",
        payload_digest(replica) == payload_digest(real),
    )


def replica_runner_cell(cell: Cell, tracer: Tracer) -> Dict[str, Any]:
    """What serial ``run_cells`` does for one uncached cell."""
    with tracer.span("experiments.runner.cell"):
        with tracer.span("experiments.cells.cell_key"):
            cell_key(cell)
        payload = replica_execute_cell(cell, tracer)
        with tracer.span("experiments.cells.canonical_json"):
            normal: Dict[str, Any] = json.loads(canonical_json(payload))
    return normal


def replica_packet_figs(
    workload: Workload, cells: List[Cell], scratch: Path, tracer: Tracer
) -> Tuple[List[Any], Counters]:
    payloads = []
    for cell in cells:
        with tracer.span("experiments.runner.execute_cell"):
            payloads.append(replica_execute_cell(cell, tracer))
    counters = new_counters()
    counters["offered"] = len(cells)
    return payloads, counters


def replica_flow_figs(
    workload: Workload, cells: List[Cell], scratch: Path, tracer: Tracer
) -> Tuple[List[Any], Counters]:
    payloads = [replica_runner_cell(cell, tracer) for cell in cells]
    counters = new_counters()
    counters["offered"] = len(cells)
    return payloads, counters


def replica_fleet_wide(
    workload: Workload, spec: FleetSpec, scratch: Path, tracer: Tracer
) -> Tuple[List[Any], Counters]:
    """``run_fleet`` in batch mode, composed from its public parts."""
    with tracer.span("experiments.fleet.expand_fleet"):
        cells = expand_fleet(spec)
    with tracer.span("experiments.cells.cell_key"):
        for cell in cells:
            cell_key(cell)
    with tracer.span("flow.plan_batches"):
        groups, rest = plan_batches(cells)
    payloads: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    for group in groups:
        with tracer.span("flow.execute_batch"):
            results = execute_batch([cells[i] for i in group])
        for index, payload in zip(group, results):
            payloads[index] = payload
    for index in rest:
        payloads[index] = replica_runner_cell(cells[index], tracer)
    with tracer.span("experiments.fleet.fleet_statistics"):
        stats = fleet_statistics(
            spec, [CellSummary(p) if p else None for p in payloads],
            resamples=workload.scale.resamples,
        )
    counters = new_counters()
    counters["offered"] = len(cells)
    counters["batched"] = sum(len(group) for group in groups)
    return [g.payload() for g in stats], counters


def replica_harness_cache(
    workload: Workload, specs: List[FleetSpec], scratch: Path, tracer: Tracer
) -> Tuple[List[Any], Counters]:
    """The pool and the cache are opaque from outside: one span per
    public call, and ``RunStats`` for what happened inside."""
    store = scratch / "cache"
    counters = new_counters()
    cold: List[Any] = []
    for spec in specs:
        with tracer.span("experiments.fleet.expand_fleet"):
            cells = expand_fleet(spec)
        with tracer.span("experiments.runner.run_cells"):
            report = run_cells(
                cells, jobs=POOL_JOBS, cache=store, mode="scalar"
            )
        with tracer.span("experiments.fleet.fleet_statistics"):
            stats = fleet_statistics(
                spec, report.summaries(), resamples=workload.scale.resamples
            )
        if not cold:
            cold = [g.payload() for g in stats]
        counters["offered"] += len(cells)
        counters["lookups"] += report.stats.cells_unique
        counters["hits"] += report.stats.cache_hits
        counters["retries"] += report.stats.retried
        counters["timeouts"] += report.stats.timeouts
        counters["quarantined"] += len(report.stats.quarantined)
    shard_dirs = [scratch / f"shard-{i}" for i in range(CACHE_SHARDS)]
    with tracer.span("experiments.cache.shard"):
        ResultCache(store).shard(shard_dirs)
    with tracer.span("experiments.cache.merge"):
        ResultCache(scratch / "merged").merge(shard_dirs)
    return cold, counters


REPLICAS: Dict[str, Callable[..., Tuple[List[Any], Counters]]] = {
    "packet-figs": replica_packet_figs,
    "flow-figs": replica_flow_figs,
    "fleet-wide": replica_fleet_wide,
    "harness-cache": replica_harness_cache,
}


# ---------------------------------------------------------------------------
# Part 1: the workload itself, untraced against traced


def leaf_seconds(spans: Sequence[Span]) -> float:
    """Time inside spans that have no child: the layer calls themselves,
    without the glue spans that only group them."""
    parents = {s["parent"] for s in spans}
    return sum(duration(s) for s in spans if s["id"] not in parents)


def workload_part(
    workload: Workload, seed: int, scratch: Path, tracer: Tracer
) -> Tuple[Dict[str, float], List[Check]]:
    replica = REPLICAS[workload.name]

    real_walls: List[float] = []
    traced_walls: List[float] = []
    explained: List[float] = []
    checks: List[Check] = []
    counters = new_counters()
    for index in range(1, TRACED_PASSES + 1):
        _inputs, output, wall = workload.timed_pass(
            seed, scratch / f"real-{index}"
        )
        real_walls.append(wall)
        real_digests = workload.digests(output)
        del output

        inputs = workload.inputs(seed)
        pass_dir = scratch / f"traced-{index}"
        pass_dir.mkdir()
        tracer.pass_label = f"traced-{index}"
        first_span = len(tracer.spans)
        with tracer.span("ledger.pass") as root:
            delivered, counters = replica(workload, inputs, pass_dir, tracer)
        shutil.rmtree(pass_dir)
        digests = [payload_digest(item) for item in delivered]
        traced_walls.append(duration(root))
        explained.append(leaf_seconds(tracer.spans[first_span + 1:]))
        checks.append(
            (f"traced-{index}:replica-equals-real-pass", digests == real_digests)
        )
    untraced = min(real_walls)
    offered = max(counters["offered"], 1)
    metrics = {
        "ledger.trace_overhead_share": (min(traced_walls) - untraced) / untraced,
        "ledger.residual_share": 1.0 - min(explained) / untraced,
        "flow.batched_share": counters["batched"] / offered,
        "experiments.cache.hit_share": (
            counters["hits"] / counters["lookups"] if counters["lookups"] else 0.0
        ),
        "experiments.runner.retries": float(counters["retries"]),
        "experiments.runner.timeouts": float(counters["timeouts"]),
        "experiments.runner.quarantined": float(counters["quarantined"]),
    }
    return metrics, checks


# ---------------------------------------------------------------------------
# Part 2: probes


# SimProfiler files every event handler under one of these buckets ...
PROFILE_BUCKETS = {
    "paths": "net",
    "sender": "core",
    "receiver": "receiver",
    "cc": "cc",
    "video": "video",
}
# ... and times these sections inside the handlers (so a section's time
# is also part of the bucket of the handler that entered it).
PROFILE_SECTIONS = {
    "scheduling": ("scheduler.assign",),
    "fec": ("fec.converge", "fec.webrtc"),
    "cc": ("cc.gcc",),
}
SECTION_COST_METRICS = {
    "scheduling": "scheduling.assign_us",
    "fec": "fec.size_us",
    "cc": "cc.feedback_us",
}


def probe_packet(
    seed: int, scale: Scale, tracer: Tracer
) -> Tuple[Dict[str, float], List[Check]]:
    """DES layers on every third ``packet-figs`` cell (webrtc-t, srtt,
    converge on driving, converge under path churn): one spanned run
    for the call wall, one ``SimProfiler`` run for events and host
    shares.  The shares are of the *profiled* cells' wall (two clock
    reads per event): a handler bucket's seconds, a section's seconds
    for ``fec`` and ``scheduling``, and for ``simulation`` what is left
    outside every handler — the event loop and its queue."""
    tracer.pass_label = "probe-packet"
    spanned = [
        payload_digest(replica_execute_cell(cell, tracer))
        for cell in packet_cells(seed, scale)[::PACKET_PROBE_STRIDE]
    ]
    calls = tracer.named("core.run_call", "probe-packet")
    call_seconds = sum(duration(s) for s in calls)

    events = 0
    bucket_seconds: Dict[str, float] = {}
    section_seconds: Dict[str, float] = {}
    section_calls: Dict[str, int] = {}
    profiled = []
    for cell in packet_cells(seed, scale)[::PACKET_PROBE_STRIDE]:
        profiler = SimProfiler()
        with tracer.span("experiments.runner.execute_cell.profiled"):
            profiled.append(payload_digest(execute_cell(cell, profiler=profiler)))
        report = profiler.report()
        events += report["events_total"]
        for bucket, row in report["subsystems"].items():
            bucket_seconds[bucket] = bucket_seconds.get(bucket, 0.0) + row["seconds"]
        for name, row in report["sections"].items():
            section_seconds[name] = section_seconds.get(name, 0.0) + row["seconds"]
            section_calls[name] = section_calls.get(name, 0) + row["calls"]
    profiled_seconds = sum(
        duration(s) for s in tracer.named(
            "experiments.runner.execute_cell.profiled", "probe-packet"
        )
    )
    metrics = {
        "simulation.events": float(events),
        "simulation.events_per_s": events / call_seconds,
        "simulation.host_share": 1.0
        - sum(bucket_seconds.values()) / profiled_seconds,
        "core.call_ms": mean_ms(calls),
    }
    for bucket, layer in PROFILE_BUCKETS.items():
        metrics[f"{layer}.host_share"] = (
            bucket_seconds.get(bucket, 0.0) / profiled_seconds
        )
    for layer, sections in PROFILE_SECTIONS.items():
        calls_made = sum(section_calls.get(s, 0) for s in sections)
        seconds = sum(section_seconds.get(s, 0.0) for s in sections)
        metrics[SECTION_COST_METRICS[layer]] = (
            1e6 * seconds / calls_made if calls_made else 0.0
        )
        if layer not in PROFILE_BUCKETS.values():
            metrics[f"{layer}.host_share"] = seconds / profiled_seconds
    checks = [("packet-replica-equals-execute_cell", spanned == profiled)]
    return metrics, checks


def _noop() -> None:
    return None


def probe_queue(seed: int, events: int, tracer: Tracer) -> Dict[str, float]:
    """``EventQueue`` alone: push a schedule the size of the packet
    fixture's event count, cancel two thirds (which forces compaction),
    pop the rest."""
    tracer.pass_label = "probe-queue"
    count = max(min(events, QUEUE_EVENTS_CAP), 300)
    rng = random.Random(seed)
    times = [rng.random() * 100.0 for _ in range(count)]
    queue = EventQueue()
    with tracer.span("simulation.event_queue") as span:
        pushed = [queue.push(t, _noop) for t in times]
        cancelled = 0
        for index, event in enumerate(pushed):
            if index % 3:
                event.cancel()
                cancelled += 1
        popped = 0
        while queue.pop() is not None:
            popped += 1
    ops = count + cancelled + popped
    return {"simulation.queue_ops_per_s": ops / duration(span)}


class _Packet:
    __slots__ = ("size_bytes",)

    def __init__(self) -> None:
        self.size_bytes = 1200


def probe_path(seed: int, tracer: Tracer) -> Dict[str, float]:
    """``net.Path`` under a bare ``Simulator``: 1200-byte packets paced
    at 1000/s over the driving trace, no sender or receiver attached."""
    tracer.pass_label = "probe-path"
    sim_seconds = PATH_PACKETS / 1000.0
    config = scenario_paths("driving", sim_seconds, seed)[0]
    sim = Simulator(seed)
    path = NetPath(sim, config)
    packet = _Packet()
    sent = 0

    def send() -> None:
        nonlocal sent
        path.send(packet)
        sent += 1
        if sent < PATH_PACKETS:
            sim.schedule(0.001, send)

    sim.schedule(0.0, send)
    with tracer.span("net.path") as span:
        sim.run(until=sim_seconds + 1.0)
    return {"net.path_pkts_per_s": sent / duration(span)}


def probe_flow(
    seed: int, scale: Scale, tracer: Tracer
) -> Tuple[Dict[str, float], List[Check]]:
    """Scalar flow path on every fourth ``flow-figs`` cell of each kind
    (figure grid, two-stream, chaos)."""
    tracer.pass_label = "probe-flow"
    cells = [c for group in flow_cell_groups(seed, scale) for c in group[::4]]
    payloads = [replica_runner_cell(cell, tracer) for cell in cells]
    single = tracer.named("flow.run_flow_call", "probe-flow")
    steps = sum(
        c.duration * FRAME_RATE for c in cells if c.num_streams == 1
    )
    metrics = {
        "flow.call_ms": mean_ms(single),
        "flow.steps_per_s": steps / sum(duration(s) for s in single),
        "flow.multistream_call_ms": mean_ms(
            tracer.named("flow.run_flow_call.multistream", "probe-flow")
        ),
        "traces.build_ms": mean_ms(tracer.named("traces.build", "probe-flow")),
        "faults.plan_ms": mean_ms(
            tracer.named("faults.build_chaos_plan", "probe-flow")
        ),
        "analysis.export_ms": mean_ms(
            tracer.named("analysis.result_to_dict", "probe-flow")
        ),
        "experiments.cells.canonical_json_ms": mean_ms(
            tracer.named("experiments.cells.canonical_json", "probe-flow")
        ),
        "experiments.cells.payload_bytes": sum(
            len(canonical_json(p)) for p in payloads
        ) / len(payloads),
    }
    reference = json.loads(canonical_json(execute_cell(cells[0])))
    checks = [("flow-replica-equals-execute_cell", payloads[0] == reference)]
    return metrics, checks


def probe_link(seed: int, scale: Scale, tracer: Tracer) -> Dict[str, float]:
    """``FlowLink`` alone: tabulate capacities, then push and sample
    loss once per frame step."""
    tracer.pass_label = "probe-link"
    sim_seconds = scale.flow_duration
    config = scenario_paths("driving", sim_seconds, seed)[0]
    dt = 1.0 / FRAME_RATE
    steps = int(round(sim_seconds * FRAME_RATE))
    rng = random.Random(seed)
    with tracer.span("flow.link") as span:
        for _ in range(LINK_REPEATS):
            link = FlowLink(config)
            link.precompute(dt, steps)
            for step, cap in enumerate(link.step_caps):
                link.push(dt, cap, 12_000.0)
                link.step_loss(step * dt, 10, rng)
    return {"flow.link_steps_per_s": LINK_REPEATS * steps / duration(span)}


def probe_batch(seed: int, scale: Scale, tracer: Tracer) -> Dict[str, float]:
    """``execute_batch`` on the first B ``fleet-wide`` cells: the cost
    per cell at each width, and the line through wall against width
    whose intercept is the per-batch fixed cost."""
    tracer.pass_label = "probe-batch"
    spec = fleet_spec(seed, scale)
    with tracer.span("experiments.fleet.expand_fleet") as span:
        expand_fleet(spec)
    metrics = {
        "experiments.fleet.expand_ms_per_cell": 1e3 * duration(span)
        / spec.cell_count
    }
    with tracer.span("flow.plan_batches") as span:
        plan_batches(expand_fleet(spec))
    metrics["flow.plan_ms_per_cell"] = 1e3 * duration(span) / spec.cell_count
    widths, walls_ms = [], []
    for declared_width in BATCH_WIDTHS:
        width = min(declared_width, spec.cell_count)
        cells = expand_fleet(spec)[:width]
        with tracer.span(f"flow.execute_batch.B{declared_width}") as span:
            execute_batch(cells)
        wall_ms = 1e3 * duration(span)
        metrics[f"flow.batch_ms_per_cell.B{declared_width}"] = wall_ms / width
        widths.append(float(width))
        walls_ms.append(wall_ms)
    lane_ms, fixed_ms = np.polyfit(widths, walls_ms, 1)
    metrics["flow.batch_fixed_ms"] = float(fixed_ms)
    metrics["flow.batch_lane_ms"] = float(lane_ms)
    return metrics


def probe_cells(seed: int, scale: Scale, tracer: Tracer) -> Dict[str, float]:
    """Cell identity: build a cell and hash it (no memo on a fresh cell)."""
    tracer.pass_label = "probe-cells"
    spec = FleetSpec.from_ranges(
        ["driving"], [SystemKind.CONVERGE], seed, KEY_CELLS,
        scale.flow_duration,
    )
    with tracer.span("experiments.cells.make_cell+cell_key") as span:
        for cell in expand_fleet(spec):
            cell_key(cell)
    return {"experiments.cells.key_ms": 1e3 * duration(span) / KEY_CELLS}


def probe_runner(
    seed: int, scale: Scale, tracer: Tracer
) -> Tuple[Dict[str, float], List[Tuple[str, Dict[str, Any], Dict[str, Any]]]]:
    """Runner overhead on the ``harness-cache`` cells with no cache: run
    wall minus the cells' own wall (spread over the workers), per cell;
    then the bootstrap statistics over the same summaries."""
    tracer.pass_label = "probe-runner"
    spec = cache_spec(seed, scale)
    metrics = {}
    for name, jobs in (("serial", 1), ("pool", POOL_JOBS)):
        cells = expand_fleet(spec)
        with tracer.span(f"experiments.runner.run_cells.{name}") as span:
            report = run_cells(cells, jobs=jobs, cache=None, mode="scalar")
        inside = report.stats.executed_wall_seconds / jobs
        metrics[f"experiments.runner.{name}_overhead_ms_per_cell"] = (
            1e3 * (duration(span) - inside) / len(cells)
        )
    with tracer.span("experiments.fleet.fleet_statistics") as span:
        groups = fleet_statistics(
            spec, report.summaries(), resamples=scale.resamples
        )
    metrics["experiments.fleet.stats_ms_per_group"] = (
        1e3 * duration(span) / len(groups)
    )
    entries = [
        (o.key, o.cell.resolved(), o.summary.data)
        for o in report.outcomes
        if o.summary is not None
    ]
    return metrics, entries


def probe_cache(
    entries: List[Tuple[str, Dict[str, Any], Dict[str, Any]]],
    scratch: Path,
    tracer: Tracer,
) -> Dict[str, float]:
    """Direct ``ResultCache`` calls on the ``harness-cache`` cells'
    keys and payloads (taken from the runner probe)."""
    tracer.pass_label = "probe-cache"
    cache = ResultCache(scratch / "probe-cache")
    with tracer.span("experiments.cache.put") as put:
        for key, resolved, payload in entries:
            cache.put(key, resolved, payload, 0.0)
    with tracer.span("experiments.cache.get") as get:
        hits = sum(1 for key, _, _ in entries if cache.get(key) is not None)
    shard_dirs = [scratch / f"probe-shard-{i}" for i in range(CACHE_SHARDS)]
    with tracer.span("experiments.cache.shard") as shard:
        cache.shard(shard_dirs)
    with tracer.span("experiments.cache.merge") as merge:
        ResultCache(scratch / "probe-merged").merge(shard_dirs)
    count = len(entries)
    if hits != count:
        raise RuntimeError(f"cache probe lost entries: {hits} of {count}")
    return {
        "experiments.cache.put_ms": 1e3 * duration(put) / count,
        "experiments.cache.get_ms": 1e3 * duration(get) / count,
        "experiments.cache.shard_ms_per_entry": 1e3 * duration(shard) / count,
        "experiments.cache.merge_ms_per_entry": 1e3 * duration(merge) / count,
        "experiments.cache.bytes_per_entry": cache.size_bytes() / count,
    }


# ---------------------------------------------------------------------------


def traced_run(
    workload_name: str, seed: int, scale_name: str, scratch: Path
) -> Dict[str, Any]:
    scale = SCALES[scale_name]
    workload = WORKLOADS[workload_name](scale)
    tracer = Tracer(workload_name)
    calibration = calibrate.both()

    metrics, checks = workload_part(workload, seed, scratch, tracer)

    packet_metrics, packet_checks = probe_packet(seed, scale, tracer)
    flow_metrics, flow_checks = probe_flow(seed, scale, tracer)
    runner_metrics, cache_entries = probe_runner(seed, scale, tracer)
    metrics.update(packet_metrics)
    metrics.update(flow_metrics)
    metrics.update(
        probe_queue(seed, int(packet_metrics["simulation.events"]), tracer)
    )
    metrics.update(probe_path(seed, tracer))
    metrics.update(probe_link(seed, scale, tracer))
    metrics.update(probe_batch(seed, scale, tracer))
    metrics.update(probe_cells(seed, scale, tracer))
    metrics.update(runner_metrics)
    metrics.update(probe_cache(cache_entries, scratch, tracer))
    metrics["ledger.calib_py_ops_per_s"] = calibration["py_ops_per_s"]
    metrics["ledger.calib_np_ops_per_s"] = calibration["np_ops_per_s"]

    checks += packet_checks + flow_checks
    return {
        "metrics": metrics,
        "checks": [[name, ok] for name, ok in checks],
        "calibration": calibration,
        "spans": tracer.spans,
    }

