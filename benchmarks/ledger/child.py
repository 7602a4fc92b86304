"""Workload child process of the ledger (started by ``run.py``).

One child does one job for one workload and prints one JSON object as
the last line of its standard output:

- ``timed``   set up (imports, input generation, one burn-in pass), run
  timed passes of identical work until ``--seconds`` have passed, then
  run the output checks.  Tracing is off.  Reports set-up time and pass
  walls on the host clock and in calibrated seconds (``calibrate.py``),
  peak memory of itself and its pool workers as it stood when the last
  timed pass ended, pass digests and check results.
- ``traced``  the per-layer run (``layers.py``).

One process per workload makes set-up time and peak memory belong to
that workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[2]


def peak_rss_kib() -> int:
    """Largest resident set of this process or any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, workers))


def run_timed(args: argparse.Namespace, scratch: Path) -> Dict[str, Any]:
    import calibrate
    from workloads import SCALES, WORKLOADS

    workload = WORKLOADS[args.workload](SCALES[args.scale])

    inputs, _output, _wall = workload.timed_pass(args.seed, scratch / "burn-in")
    cells = workload.cells_delivered(inputs)
    sim_seconds = workload.simulated_seconds(inputs)
    setup_s = time.time() - args.spawned_at

    # One calibration slice before the first timed pass and one after
    # every pass: a pass is expressed in calibrated seconds by the two
    # slices around it.
    slices = [calibrate.slice_speeds()]

    walls: List[float] = []
    failed_cells: List[int] = []
    checks: List[Any] = []
    first_digests: List[str] = []
    began = time.perf_counter()
    while (
        len(walls) < workload.scale.min_passes
        or time.perf_counter() - began < args.seconds
    ):
        inputs, output, wall = workload.timed_pass(
            args.seed, scratch / f"pass-{len(walls)}"
        )
        slices.append(calibrate.slice_speeds())
        walls.append(wall)
        failed_cells.append(workload.failed_cells(output))
        checks += [
            [f"pass{len(walls)}:{name}", ok]
            for name, ok in workload.pass_checks(inputs, output)
        ]
        digests = workload.digests(output)
        del output
        if len(walls) == 1:
            first_digests = digests
        else:
            checks.append(
                [f"pass{len(walls)}:equals-first-pass", digests == first_digests]
            )
    peak = peak_rss_kib()
    blended = [calibrate.blend(s, workload.numpy_share) for s in slices]
    speeds = [(before + after) / 2.0 for before, after in zip(blended, blended[1:])]

    # Untimed from here on; layers.py is imported late so that neither
    # set-up time nor peak memory pays for it.
    from layers import replica_check
    from workloads import reference_checks

    ref_error, ref_where, more = reference_checks(workload, scratch)
    more += workload.extra_checks(args.seed)
    more.append(replica_check(workload.ref_fidelity))
    checks += [[name, ok] for name, ok in more]
    return {
        "setup_host_s": setup_s,
        # No slice can precede set-up, so it is calibrated by the speed
        # the host showed over the whole run.
        "setup_cal_s": setup_s * statistics.median(blended),
        "pass_walls_s": walls,
        "pass_cal_walls_s": [w * s for w, s in zip(walls, speeds)],
        "slice_speeds": slices,
        "cells_per_pass": cells,
        "sim_seconds_per_pass": sim_seconds,
        "failed_cells_per_pass": failed_cells,
        "checks": checks,
        "ref_error_max": ref_error,
        "ref_error_at": ref_where,
        "pass1_digests": first_digests,
        "peak_rss_kib": peak,
    }


def run_traced(args: argparse.Namespace, scratch: Path) -> Dict[str, Any]:
    import layers

    return layers.traced_run(args.workload, args.seed, args.scale, scratch)


ROLES = {"timed": run_timed, "traced": run_traced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=sorted(ROLES), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    args.scratch.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.role}-", dir=args.scratch))
    try:
        result = ROLES[args.role](args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
