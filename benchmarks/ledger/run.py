"""The repo's performance ledger: one command, every metric, every layer.

    python benchmarks/ledger/run.py [--seed N] [--out DIR] [--smoke]

runs the four workloads of ``BENCHMARK.json`` twice each — an untraced
run for the end-to-end metrics and a traced run for the per-layer
metrics — prints every metric by name and unit per workload, checks the
outputs, and writes one JSON record plus ``trace.jsonl`` to ``--out``.

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs one half of one workload and prints, as the last line of standard
output, the one-line JSON result the acceptance driver reads.

This process only starts children (``child.py``) and does arithmetic on
what they report; it imports neither numpy nor ``repro``, so a child's
peak memory is its own.  README.md documents workloads, metrics and
method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import record
import spans

CHILD = record.LEDGER_DIR / "child.py"
DEFAULT_OUT = record.LEDGER_DIR / "out"
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(
    role: str, workload: str, seed: int, scale: str, scratch: Path,
    seconds: float = 0.0,
) -> Dict[str, Any]:
    command = [
        sys.executable, str(CHILD), "--role", role, "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--seconds", repr(seconds),
        "--spawned-at", repr(time.time()), "--scratch", str(scratch),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=False,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} child of {workload} timed out") from exc
    if done.returncode != 0:
        raise ChildFailed(
            f"{role} child of {workload} exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])  # type: ignore[no-any-return]


def tally(checks: List[List[Any]]) -> Dict[str, Any]:
    failed = [name for name, ok in checks if not ok]
    return {"attempted": len(checks), "failed": len(failed), "failures": failed}


def untraced_run(
    workload: str, seed: int, scale: str, seconds: float, scratch: Path,
    bench: Dict[str, Any],
) -> Dict[str, Any]:
    """End-to-end half: one child sets up, runs the timed passes, then
    runs the output checks."""
    child = run_child("timed", workload, seed, scale, scratch, seconds)

    walls = child["pass_walls_s"]
    cal_walls = child["pass_cal_walls_s"]
    cells = child["cells_per_pass"]
    raw = record.quartiles(walls)
    cal = record.quartiles(cal_walls)
    verdict = tally(child["checks"])
    failed_cells = child["failed_cells_per_pass"]
    attempted = cells * len(walls) + verdict["attempted"]
    failed = sum(failed_cells) + verdict["failed"]
    # The worse of the two shares, and of cells the worst pass: one
    # failed check or cell must not drown in thousands of good cells.
    ok_share = min(
        1.0 - max(failed_cells) / cells,
        1.0 - verdict["failed"] / verdict["attempted"],
    )
    values = {
        "cells_per_cal_s": cells / cal["median"],
        "peak_rss_mib": child["peak_rss_kib"] / 1024.0,
        "setup_s": child["setup_cal_s"],
        "ok_share": ok_share,
        "ref_error_plus1": 1.0 + child["ref_error_max"],
    }
    digest = hashlib.sha256(
        "\n".join(sorted(child["pass1_digests"])).encode()
    ).hexdigest()
    return {
        "end_to_end": record.with_units(
            values, record.declared(bench, "end_to_end")
        ),
        "passes": {
            "n": len(walls),
            "cells_per_pass": cells,
            "walls_s": walls,
            "p25_s": raw["p25"],
            "median_s": raw["median"],
            "p75_s": raw["p75"],
            "cal_walls_s": cal_walls,
            "cal_p25_s": cal["p25"],
            "cal_median_s": cal["median"],
            "cal_p75_s": cal["p75"],
        },
        # Host-clock readings beside the calibrated throughput: p25
        # because interference on a shared host only ever slows a pass.
        "raw": {
            "cells_per_s": cells / raw["p25"],
            "sim_s_per_wall_s": child["sim_seconds_per_pass"] / raw["p25"],
            "setup_host_s": child["setup_host_s"],
        },
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "checks": verdict,
        "ref_error_max": child["ref_error_max"],
        "ref_error_at": child["ref_error_at"],
        "stat_digest": digest,
        # Host speed against the reference host on each calibration
        # loop, one reading before the first pass and one after each.
        "calibration": {
            loop: statistics.median(s[loop] for s in child["slice_speeds"])
            for loop in ("python", "numpy")
        },
        "slice_speeds": child["slice_speeds"],
    }


def traced_run(
    workload: str, seed: int, scale: str, scratch: Path, bench: Dict[str, Any],
    all_spans: List[spans.Span],
) -> Dict[str, Any]:
    """Per-layer half: one traced child; its spans join ``all_spans``."""
    child = run_child("traced", workload, seed, scale, scratch)
    offset = len(all_spans)
    for span in child["spans"]:
        span["id"] += offset
        if span["parent"] is not None:
            span["parent"] += offset
    all_spans += child["spans"]
    return {
        "per_layer": record.with_units(
            child["metrics"], record.declared(bench, "per_layer")
        ),
        "traced_checks": tally(child["checks"]),
        "traced_calibration": child["calibration"],
        "spans": len(child["spans"]),
    }


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(f"== {name}")
    if "end_to_end" in entry:
        passes = entry["passes"]
        raw = entry["raw"]
        print(
            f"   passes n={passes['n']}  host clock p25={passes['p25_s']:.3f}s "
            f"median={passes['median_s']:.3f}s p75={passes['p75_s']:.3f}s  "
            f"calibrated median={passes['cal_median_s']:.3f}s"
        )
        print(
            f"   host clock: cells_per_s={raw['cells_per_s']:.2f} "
            f"sim_s_per_wall_s={raw['sim_s_per_wall_s']:.1f} "
            f"setup={raw['setup_host_s']:.2f}s  "
            f"host speed python x{entry['calibration']['python']:.3f} "
            f"numpy x{entry['calibration']['numpy']:.3f}"
        )
        print(
            f"   failed_share={entry['failed_share']:.6f} "
            f"({entry['failed']} of {entry['attempted']})  "
            f"ref_error_max={entry['ref_error_max']:.4f}"
            f" at {entry['ref_error_at'] or '-'}  "
            f"stat_digest={entry['stat_digest'][:16]}"
        )
        for failure in entry["checks"]["failures"]:
            print(f"   FAILED CHECK {failure}")
    for section in ("end_to_end", "per_layer"):
        for metric, value in entry.get(section, {}).items():
            print(f"   {metric:<48} {value['value']:>16.6g} {value['unit']}")
    for failure in entry.get("traced_checks", {}).get("failures", []):
        print(f"   FAILED CHECK {failure}")


def contract_line(entry: Dict[str, Any], trace: str) -> str:
    """The acceptance driver's one-line result for one workload half."""
    if trace == "0":
        attempted, failed = entry["attempted"], entry["failed"]
        metrics = entry["end_to_end"]
    else:
        attempted = entry["traced_checks"]["attempted"]
        failed = entry["traced_checks"]["failed"]
        metrics = entry["per_layer"]
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the cell seeds only (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0 end-to-end half, 1 per-layer half")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for ledger.json and trace.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells, two passes")
    args = parser.parse_args(argv)

    if not (record.ROOT / "src" / "repro").is_dir():
        print("ledger: src/repro not found next to BENCHMARK.json; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    bench = record.load_benchmark()
    names = args.workload or record.workload_names(bench)
    unknown = sorted(set(names) - set(record.workload_names(bench)))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(bench["run_seconds"])

    args.out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=args.out))
    ledger: Dict[str, Any] = {
        "schema": record.SCHEMA,
        "provenance": record.provenance(args.seed, scale, scratch),
        "workloads": {},
    }
    ledger["provenance"].update(
        {"seconds": seconds, "trace": args.trace}
    )
    all_spans: List[spans.Span] = []
    try:
        for name in names:
            entry: Dict[str, Any] = {}
            if args.trace in ("0", "both"):
                entry.update(untraced_run(
                    name, args.seed, scale, seconds, scratch, bench
                ))
            if args.trace in ("1", "both"):
                entry.update(traced_run(
                    name, args.seed, scale, scratch, bench, all_spans
                ))
            ledger["workloads"][name] = entry
            print_workload(name, entry)
    except ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    (args.out / "ledger.json").write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n"
    )
    if all_spans:
        spans.write_jsonl(all_spans, args.out / "trace.jsonl")
    print(f"wrote {args.out / 'ledger.json'}")

    failed = sum(
        entry.get("failed", 0) + entry.get("traced_checks", {}).get("failed", 0)
        for entry in ledger["workloads"].values()
    )
    if len(names) == 1 and args.trace != "both":
        print(contract_line(ledger["workloads"][names[0]], args.trace))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
