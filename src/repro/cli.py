"""Command-line interface.

Usage::

    python -m repro run --system converge --scenario driving --duration 30
    python -m repro run --jobs 4 --cache ~/.cache/repro-converge
    python -m repro run --chaos rtcp-blackout --scenario driving
    python -m repro fleet --scenarios driving --seeds 200
    python -m repro fleet --fidelity packet --scenarios walking --seeds 1
    python -m repro experiment fig12 --duration 60 --jobs 8
    python -m repro claims --fidelity flow --seeds 20
    python -m repro profile fig14 --duration 12 --top 20
    python -m repro cache ls
    python -m repro cache shard --shards 4 --out shards/
    python -m repro cache merge shards/shard-0 shards/shard-1
    python -m repro cache clear
    python -m repro analyze --format json
    python -m repro list

Every command is deterministic given ``--seed``: the same invocation
produces byte-identical results whether it runs serially, across
``--jobs`` worker processes, or out of the ``--cache`` directory
(caching is off unless ``--cache DIR`` is given).

A paper result has one of two shapes, and each has one command:
``run`` is one call of one system on one trace (``--chaos`` injects a
fault plan into it), and ``fleet`` is a scenarios x systems x seeds
matrix reduced per system.

The commands that simulate share their plumbing: one declaration of
the call flags (:func:`_add_call_args`) and of the runner flags
(:func:`_add_runner_args`, handed on by :func:`_runner_kwargs`), one
experiment driver (:func:`repro.experiments.figures.run_experiment`
over the :data:`EXPERIMENTS` table), one statistics sentence
(:func:`repro.experiments.runner.stats_line`), and one place a failed
cell ends a command (:func:`main`: an ``error:`` line, exit 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Type, TypeVar

from repro.analysis.plots import render_series, sparkline
from repro.core.config import FecMode, SystemKind
from repro.devtools.analyze import add_analyze_arguments, run_analyze
from repro.experiments import (
    fig01_motivation,
    fig03_multipath_not_enough,
    fig09_10_wild,
    fig11_feedback,
    fig12_13_fec,
    fig14_15_comparison,
    fig16_17_stationary,
    sweeps,
    traces_appendix,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.cells import Fidelity, ScenarioPaths, make_cell
from repro.experiments.figures import run_experiment
from repro.experiments.fleet import FLEET_METRICS, FleetSpec, run_fleet
from repro.experiments.runner import (
    CellFailure,
    RunStats,
    report_quarantined,
    results_of,
    run_cells,
    stats_line,
)
from repro.faults.scenarios import chaos_scenario_names
from repro.metrics.report import format_table
from repro.traces.scenarios import scenario_networks

EXPERIMENTS = {
    "fig01": fig01_motivation,
    "fig03": fig03_multipath_not_enough,
    "fig09": fig09_10_wild,
    "fig11": fig11_feedback,
    "fig12": fig12_13_fec,
    "fig14": fig14_15_comparison,
    "fig16": fig16_17_stationary,
    "sweeps": sweeps,
    "traces": traces_appendix,
}

SCENARIOS = ("stationary", "walking", "driving", "migration")

_Number = TypeVar("_Number", int, float)


def _positive(
    kind: Type[_Number], below: float = math.inf
) -> Callable[[str], _Number]:
    """An argparse ``type=`` for finite values of ``kind`` above zero
    (and under ``below``): anything else is a usage error (exit 2)
    before any cell runs, not a traceback."""
    bound = "" if below == math.inf else f" and below {below:g}"

    def parse(text: str) -> _Number:
        value = kind(text)
        if not 0 < value < below:
            raise argparse.ArgumentTypeError(
                f"must be positive{bound}: {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


def _add_call_args(parser: argparse.ArgumentParser) -> None:
    """The flags every simulated call of ``run`` and ``fleet`` shares."""
    parser.add_argument("--duration", type=_positive(float), default=30.0)
    parser.add_argument("--streams", type=_positive(int), default=1)
    parser.add_argument("--seed", type=int, default=1)


def _add_runner_args(
    parser: argparse.ArgumentParser, fidelity: str = Fidelity.PACKET.value
) -> None:
    """The flags every runner-backed command shares; ``fidelity`` is
    the command's default backend, ``"both"`` for one that runs each."""
    choices = [f.value for f in Fidelity]
    parser.add_argument(
        "--fidelity",
        choices=choices + ["both"] if fidelity == "both" else choices,
        default=fidelity,
        help="simulation backend: the packet-level core (exact) or the "
        "flow-level fast path (cross-validated approximation)",
    )
    parser.add_argument(
        "--jobs", type=_positive(int), default=None, metavar="N",
        help="worker processes (default: all cores; 1 = serial)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="cache results under DIR (reused on identical re-runs)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per finished cell to stderr",
    )
    parser.add_argument(
        "--cell-timeout", type=_positive(float), default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell (its worker process is killed); a "
        "cell that overruns or kills its worker is re-run once, then "
        "quarantined; a cell that raises is quarantined at once",
    )


def _runner_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """What :func:`_add_runner_args` parsed, as runner keywords."""
    return {
        "jobs": args.jobs,
        "cache": args.cache,
        "progress": args.progress,
        "cell_timeout": args.cell_timeout,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Converge: QoE-driven Multipath Video "
            "Conferencing over WebRTC (SIGCOMM 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    systems = [s.value for s in SystemKind]

    run_parser = sub.add_parser(
        "run", help="run one simulated call, optionally under a fault plan"
    )
    run_parser.add_argument(
        "--system", choices=systems, default=SystemKind.CONVERGE.value
    )
    run_parser.add_argument("--scenario", choices=SCENARIOS, default="driving")
    _add_call_args(run_parser)
    run_parser.add_argument(
        "--chaos", choices=chaos_scenario_names(), default=None,
        help="inject a canned fault plan and report its recovery",
    )
    run_parser.add_argument(
        "--fec", choices=[m.value for m in FecMode], default=None,
        help="override the system's default FEC mode",
    )
    run_parser.add_argument(
        "--no-feedback", action="store_true",
        help="disable the QoE feedback loop (ablation)",
    )
    run_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full result (summary + series + faults) as JSON",
    )
    run_parser.add_argument(
        "--plot", action="store_true", help="render terminal charts"
    )
    _add_runner_args(run_parser)

    fleet_parser = sub.add_parser(
        "fleet",
        help="run a scenarios x systems x seeds matrix and report each "
        "group's QoE means with bootstrap confidence intervals",
    )
    fleet_parser.add_argument(
        "--scenarios", nargs="+", choices=SCENARIOS, default=["driving"]
    )
    fleet_parser.add_argument(
        "--systems", nargs="+", choices=systems, default=systems
    )
    fleet_parser.add_argument(
        "--seeds", type=_positive(int), default=32, metavar="N",
        help="seeds per matrix point (seed, seed+1, ...)",
    )
    _add_call_args(fleet_parser)
    fleet_parser.add_argument(
        "--confidence", type=_positive(float, below=1.0), default=0.95,
        help="bootstrap confidence level for the per-metric mean CI",
    )
    fleet_parser.add_argument(
        "--resamples", type=_positive(int), default=1000,
        help="bootstrap resamples per metric",
    )
    fleet_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full fleet report (per-group distributions) as JSON",
    )
    _add_runner_args(fleet_parser, fidelity=Fidelity.FLOW.value)

    claims_parser = sub.add_parser(
        "claims",
        help="judge the paper's orderings over paired seeds (CLAIMS.json)",
    )
    claims_parser.add_argument(
        "--seeds", type=_positive(int), default=20, metavar="N",
        help="seeds 1..N per arm; each claim fixes its own duration",
    )
    claims_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the verdicts as JSON (the CLAIMS.json format)",
    )
    _add_runner_args(claims_parser, fidelity="both")

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument(
        "--duration", type=_positive(float), default=60.0
    )
    experiment_parser.add_argument("--seed", type=int, default=1)
    _add_runner_args(experiment_parser)

    profile_parser = sub.add_parser(
        "profile",
        help="profile one experiment's cells (cProfile + subsystem table)",
    )
    profile_parser.add_argument(
        "name",
        choices=sorted(
            name for name, mod in EXPERIMENTS.items() if hasattr(mod, "cells")
        ),
        help="experiment whose cells to run serially under the profiler",
    )
    profile_parser.add_argument(
        "--duration", type=_positive(float), default=12.0,
        help="per-cell duration in seconds (short default: profiling "
        "runs serially in-process)",
    )
    profile_parser.add_argument("--seed", type=int, default=1)
    profile_parser.add_argument(
        "--limit", type=_positive(int), default=None, metavar="N",
        help="profile only the first N cells of the experiment",
    )
    profile_parser.add_argument(
        "--top", type=_positive(int), default=15, metavar="N",
        help="number of cProfile hotspots to print (by cumulative time)",
    )
    profile_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the subsystem accounting + hotspots as JSON",
    )

    cache_parser = sub.add_parser(
        "cache", help="list, shard, merge or clear the result cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("ls", "list cached cell results"),
        ("clear", "delete every cached result"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument(
            "--cache", metavar="DIR", default=None,
            help=f"cache directory (default: {default_cache_dir()})",
        )
    merge_cmd = cache_sub.add_parser(
        "merge",
        help="fold other caches' entries into this one (sharded sweeps)",
    )
    merge_cmd.add_argument(
        "sources", nargs="+", metavar="DIR",
        help="shard cache directories to merge in",
    )
    merge_cmd.add_argument(
        "--cache", metavar="DIR", default=None,
        help=f"target cache directory (default: {default_cache_dir()})",
    )
    shard_cmd = cache_sub.add_parser(
        "shard",
        help="partition this cache's entries into N shard caches",
    )
    shard_cmd.add_argument(
        "--shards", type=_positive(int), required=True, metavar="N",
        help="number of shards (content-addressed assignment)",
    )
    shard_cmd.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory receiving shard-0 ... shard-N-1 caches",
    )
    shard_cmd.add_argument(
        "--cache", metavar="DIR", default=None,
        help=f"source cache directory (default: {default_cache_dir()})",
    )

    analyze_parser = sub.add_parser(
        "analyze",
        help="run the determinism static analysis "
        "(rules R004-R007, R100, R101)",
    )
    add_analyze_arguments(analyze_parser)

    sub.add_parser("list", help="list systems, scenarios, experiments")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides: Dict[str, Any] = {}
    if args.fec is not None:
        overrides["fec_mode"] = FecMode(args.fec)
    if args.no_feedback:
        overrides["qoe_feedback_enabled"] = False
    cell = make_cell(
        ScenarioPaths(args.scenario),
        SystemKind(args.system),
        seed=args.seed,
        duration=args.duration,
        num_streams=args.streams,
        chaos=args.chaos,
        fidelity=args.fidelity,
        **overrides,
    )
    summary = results_of(run_cells([cell], **_runner_kwargs(args)))[0]
    faults = summary.faults
    churn = summary.data.get("churn")
    plan_rows: List[List[Any]] = []
    if args.chaos:
        plan_rows = [
            ["chaos plan", args.chaos],
            ["faults injected", len(faults["injected"])],
            ["churn events", len(churn["events"]) if churn else 0],
        ]
    print(
        format_table(
            ["metric", "value"],
            [
                ["system", summary.label],
                ["scenario", args.scenario],
                *plan_rows,
                ["frames rendered", summary.frames_rendered],
                ["average FPS", summary.average_fps],
                ["throughput (Mbps)", summary.throughput_bps / 1e6],
                ["E2E mean (ms)", 1000 * summary.e2e_mean],
                ["E2E p95 (ms)", 1000 * summary.e2e_p95],
                ["freeze total (s)", summary.freeze_total],
                ["QP", summary.average_qp],
                ["PSNR (dB)", summary.average_psnr],
                ["FEC overhead (%)", 100 * summary.fec_overhead],
                ["FEC utilization (%)", 100 * summary.fec_utilization],
                ["frame drops", summary.frame_drops],
                ["keyframe requests", summary.keyframe_requests],
            ],
        )
    )

    def fmt(value: Optional[float]) -> str:
        return f"{value:.2f}" if value is not None else "never"

    if args.chaos and faults["recovery"]:
        print()
        print(
            format_table(
                ["fault", "path", "window (s)", "re-enable (s)",
                 "rate rec (s)", "QoE rec (s)"],
                [
                    [
                        r["kind"],
                        r["path_id"],
                        f"{r['start']:.1f}-{r['end']:.1f}",
                        fmt(r["reenable_time"]),
                        fmt(r["rate_recovery_time"]),
                        fmt(r["qoe_recovery_time"]),
                    ]
                    for r in faults["recovery"]
                ],
            )
        )
    if args.chaos and churn:
        print()
        print(
            format_table(
                ["churn", "path", "t (s)", "next render (s)",
                 "render gap (s)", "survived"],
                [
                    [
                        e["action"],
                        e["path_id"],
                        f"{e['time']:.1f}",
                        fmt(e["time_to_next_render"]),
                        f"{e['render_gap']:.2f}",
                        "yes" if e["survived"] else "NO",
                    ]
                    for e in churn["recovery"]
                ],
            )
        )
        survived = "yes" if churn["session_survived"] else "NO"
        print(
            f"\nsession survived churn: {survived} "
            f"(max render gap {churn['max_render_gap']:.2f}s)"
        )
    if args.plot:
        rate = summary.series_pairs("receive_rate")
        if rate:
            print()
            print(
                render_series(
                    [(t, v / 1e6) for t, v in rate],
                    title="received rate (Mbps)",
                )
            )
        fps = summary.series_values("fps")
        print()
        print(f"FPS      {sparkline(fps, width=72)}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary.data, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _print_stats(stats: RunStats) -> None:
    """How ``fleet`` and ``claims`` end: the statistics sentence, then
    the cells that failed every attempt, by name."""
    print(f"\n{stats_line(stats)}")
    report_quarantined(stats, sys.stdout)


# The fleet table's column per FLEET_METRICS entry: header and scale.
_FLEET_COLUMNS = {
    "throughput_bps": ("tput Mbps", 1e-6),
    "average_fps": ("FPS", 1.0),
    "e2e_p95": ("E2E p95 ms", 1000.0),
    "freeze_total": ("stall s", 1.0),
    "average_qp": ("QP", 1.0),
    "frame_drops": ("drops", 1.0),
}


def _cmd_fleet(args: argparse.Namespace) -> int:
    spec = FleetSpec.from_ranges(
        scenarios=args.scenarios,
        systems=[SystemKind(system) for system in args.systems],
        seed_start=args.seed,
        seed_count=args.seeds,
        duration=args.duration,
        fidelity=args.fidelity,
        num_streams=args.streams,
    )
    report = run_fleet(
        spec,
        confidence=args.confidence,
        resamples=args.resamples,
        **_runner_kwargs(args),
    )

    def ci(metrics: Dict[str, Dict[str, float]], metric: str) -> str:
        row = metrics.get(metric)
        if row is None:
            return "-"
        scale = _FLEET_COLUMNS[metric][1]
        return (
            f"{scale * row['mean']:.2f} "
            f"[{scale * row['ci_lo']:.2f}, {scale * row['ci_hi']:.2f}]"
        )

    pct = f"{100.0 * args.confidence:g}%"
    print(
        format_table(
            ["scenario", "system", "n"]
            + [f"{_FLEET_COLUMNS[m][0]} [{pct}]" for m in FLEET_METRICS]
            + ["failed"],
            [
                [group.scenario, group.system, group.n]
                + [ci(group.metrics, metric) for metric in FLEET_METRICS]
                + [group.failed]
                for group in report.groups
            ],
        )
    )
    _print_stats(report.stats)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.payload(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if report.stats.errors == 0 else 1


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.experiments import claims

    fidelities = list(Fidelity)
    if args.fidelity != "both":
        fidelities = [Fidelity(args.fidelity)]
    payload, stats = claims.run_claims(
        claims.CLAIMS, range(1, args.seeds + 1), fidelities,
        **_runner_kwargs(args),
    )
    print(claims.markdown(payload))
    _print_stats(stats)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if stats.errors == 0 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    from time import perf_counter

    from repro.experiments.runner import execute_cell
    from repro.simulation import SimProfiler

    module = EXPERIMENTS[args.name]
    cells = module.cells(duration=args.duration, seed=args.seed)
    if args.limit is not None:
        cells = cells[: args.limit]

    sim_profiler = SimProfiler()
    c_profiler = cProfile.Profile()
    # Profiling measures real elapsed wall time by design.
    start = perf_counter()
    c_profiler.enable()
    for cell in cells:
        execute_cell(cell, profiler=sim_profiler)
    c_profiler.disable()
    wall = perf_counter() - start

    sim_seconds = sum(cell.duration for cell in cells)
    print(
        f"{args.name}: {len(cells)} cells, {sim_seconds:.0f} simulated "
        f"seconds in {wall:.2f}s wall "
        f"({sim_profiler.events_total / wall:,.0f} events/s)"
    )
    print()
    print(sim_profiler.format_report())

    stats = pstats.Stats(c_profiler)
    stats.sort_stats("cumulative")
    print()
    print(f"cProfile hotspots (top {args.top} by cumulative time):")
    stats.print_stats(r"repro", args.top)

    if args.json:
        hotspots = []
        for func, row in sorted(
            stats.stats.items(), key=lambda item: item[1][3], reverse=True
        ):
            filename, lineno, name = func
            if "repro" not in filename:
                continue
            cc, nc, tottime, cumtime, _ = row
            hotspots.append(
                {
                    "function": f"{filename}:{lineno}({name})",
                    "ncalls": nc,
                    "tottime": tottime,
                    "cumtime": cumtime,
                }
            )
            if len(hotspots) >= args.top:
                break
        payload = {
            "experiment": args.name,
            "duration": args.duration,
            "seed": args.seed,
            "cells": len(cells),
            "wall_seconds": wall,
            "simulated_seconds": sim_seconds,
            "events_per_second": sim_profiler.events_total / wall,
            "accounting": sim_profiler.report(),
            "hotspots": hotspots,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = EXPERIMENTS[args.name]
    if hasattr(module, "cells"):
        rows = run_experiment(
            module,
            args.duration,
            args.seed,
            args.fidelity,
            **_runner_kwargs(args),
        )
    else:
        # No calls to simulate (the trace statistics): the module makes
        # its rows itself and the runner has nothing to do.
        rows = module.rows(args.duration, args.seed)
    print(module.render(rows))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = ResultCache(args.cache)
    if args.cache_command == "merge":
        result = store.merge(args.sources)
        print(
            f"merged {result['merged']} entries into {store.root} "
            f"({result['skipped']} already present)"
        )
        return 0
    if args.cache_command == "shard":
        from pathlib import Path

        out = Path(args.out)
        dirs = [out / f"shard-{i}" for i in range(args.shards)]
        counts = store.shard(dirs)
        for directory, count in zip(dirs, counts):
            print(f"{directory}: {count} entries")
        print(f"sharded {sum(counts)} entries from {store.root}")
        return 0
    if args.cache_command == "ls":
        rows = store.ls()
        if not rows:
            print(f"cache {store.root}: empty")
            return 0
        print(
            format_table(
                ["key", "label", "system", "seed", "dur (s)", "age (s)",
                 "wall (s)", "stale"],
                [
                    [
                        row["key"],
                        row["label"],
                        row["system"],
                        row["seed"],
                        row["duration"],
                        int(row["age_seconds"]),
                        row["wall_seconds"],
                        "yes" if row["stale"] else "",
                    ]
                    for row in rows
                ],
            )
        )
        print(
            f"\n{len(rows)} entries, "
            f"{store.size_bytes() / 1e6:.1f} MB in {store.root}"
        )
    else:
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("systems    :", ", ".join(s.value for s in SystemKind))
    print("scenarios  :", ", ".join(
        f"{s} ({'+'.join(scenario_networks(s))})" for s in SCENARIOS
    ))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("chaos plans:", ", ".join(chaos_scenario_names()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "fleet": _cmd_fleet,
        "claims": _cmd_claims,
        "experiment": _cmd_experiment,
        "profile": _cmd_profile,
        "cache": _cmd_cache,
        "analyze": run_analyze,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except CellFailure as failure:
        # ``run`` and ``experiment`` have no result without every
        # cell; ``fleet`` counts failed cells instead and never raises.
        print(f"error: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
