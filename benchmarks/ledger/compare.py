"""Compare two ledger records, or check the ledger against itself.

    python benchmarks/ledger/compare.py BASE.json NEW.json
    python benchmarks/ledger/compare.py --selfcheck [--seed N]

One row per workload × end-to-end metric: base, new, new ÷ base, how
much worse the new side is as a share of the base, the bound from
``BENCHMARK.json`` and a verdict:

- ``ok``          not worse than the base by more than the bound;
- ``regressed``   worse by more than the bound — or, for ``ok_share``,
  more failed cells and output checks than the base has, however many
  operations the share is taken over;
- ``unresolved``  worse by more than the bound, but this comparison
  cannot tell a regression from interference — run more pairs
  (choosing-metrics guide, section 8) before believing it.  Between two
  records: the throughput moved but the two sides' pass-wall quartile
  ranges overlap by more than the bound.  Between two sets of runs:
  some run of the new set reads no worse than some run of the base set.

``--selfcheck`` takes two sets of three untraced runs of the same tree
(alternately, about 100 s a run), reduces each set to its medians as
the acceptance driver does, and fails if any pairing is ``regressed``
in either direction or the simulated statistics (``stat_digest``)
differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import record

Row = Dict[str, Any]

SELFCHECK_RUNS = 3


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is, as a share of ``base`` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def quartile_overlap_share(base: Dict[str, Any], new: Dict[str, Any]) -> float:
    """Overlap of the two p25..p75 ranges of calibrated pass walls, as a
    share of the base's median (0 when they are disjoint)."""
    low = max(base["cal_p25_s"], new["cal_p25_s"])
    high = min(base["cal_p75_s"], new["cal_p75_s"])
    return max(high - low, 0.0) / base["cal_median_s"]


def all_runs_worse(
    base_runs: List[float], new_runs: List[float], better: str
) -> bool:
    """Every run of the new set reads worse than every run of the base."""
    if better == "higher":
        return max(new_runs) < min(base_runs)
    return min(new_runs) > max(base_runs)


def failed_count(entry: Dict[str, Any]) -> int:
    """Failed cells and output checks of one workload, those of the
    traced run included when the record holds that half."""
    traced = entry.get("traced_checks", {}).get("failed", 0)
    return int(entry["failed"]) + int(traced)


def compare(
    base: Dict[str, Any], new: Dict[str, Any], bench: Dict[str, Any]
) -> List[Row]:
    rows: List[Row] = []
    metrics = record.declared(bench, "end_to_end")
    for workload in record.workload_names(bench):
        b = base["workloads"].get(workload, {})
        n = new["workloads"].get(workload, {})
        if "end_to_end" not in b or "end_to_end" not in n:
            continue
        for name, declaration in metrics.items():
            base_value = b["end_to_end"][name]["value"]
            new_value = n["end_to_end"][name]["value"]
            bound = declaration["bound"]
            worse = worse_by(base_value, new_value, declaration["better"])
            verdict = "ok"
            if name == "ok_share" and failed_count(n) > failed_count(b):
                verdict = "regressed"
            elif worse > bound:
                verdict = "regressed"
                if "runs" in b and "runs" in n:
                    if not all_runs_worse(
                        b["runs"][name], n["runs"][name], declaration["better"]
                    ):
                        verdict = "unresolved"
                elif name == "cells_per_cal_s" and quartile_overlap_share(
                    b["passes"], n["passes"]
                ) > bound:
                    verdict = "unresolved"
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": declaration["unit"],
                "base": base_value,
                "new": new_value,
                "ratio": new_value / base_value if base_value else float("nan"),
                "worse_by": worse,
                "bound": bound,
                "verdict": verdict,
            })
    return rows


def digest_mismatches(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Workloads whose simulated statistics differ between the records
    (only meaningful when both ran the same seed and scale)."""
    return [
        workload
        for workload, entry in base["workloads"].items()
        if "stat_digest" in entry
        and "stat_digest" in new["workloads"].get(workload, {})
        and entry["stat_digest"] != new["workloads"][workload]["stat_digest"]
    ]


def format_rows(rows: List[Row]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<16} {'unit':<8} {'base':>12} "
        f"{'new':>12} {'new/base':>9} {'worse by':>9} {'bound':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<16} {row['unit']:<8} "
            f"{row['base']:>12.5g} {row['new']:>12.5g} {row['ratio']:>9.4f} "
            f"{row['worse_by']:>+9.4f} {row['bound']:>7.4f}  {row['verdict']}"
        )
    return "\n".join(lines)


def calibration_note(base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """Host-speed ratio of the two records, from their calibration loop."""
    notes = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload, {})
        if "calibration" in entry and "calibration" in other:
            ratios = "/".join(
                f"{other['calibration'][loop] / entry['calibration'][loop]:.3f}"
                for loop in ("python", "numpy")
            )
            notes.append(f"{workload} x{ratios}")
    return ("host speed new/base (python/numpy calibration loop): "
            + ", ".join(notes))


def version_note(base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """The calibration loops run on the interpreter and numpy of the
    day: say so when the two records did not share them."""
    differing = [
        f"{key} {base['provenance'][key]} -> {new['provenance'][key]}"
        for key in ("python", "numpy")
        if base["provenance"][key] != new["provenance"][key]
    ]
    if not differing:
        return ""
    return (f"versions differ ({', '.join(differing)}): "
            "cells_per_cal_s is not comparable between these records\n")


def load(path: Path, bench: Dict[str, Any]) -> Dict[str, Any]:
    data = json.loads(path.read_text())
    problems = record.validate_record(data, bench)
    if problems:
        raise SystemExit(f"{path}: not a ledger record: {problems[0]}")
    return data  # type: ignore[no-any-return]


def median_record(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A set of records of one tree as one: the median of every
    end-to-end metric (each run's reading kept under ``runs``), the
    calibrated pass walls pooled."""
    merged = json.loads(json.dumps(records[0]))
    for workload, entry in merged["workloads"].items():
        others = [r["workloads"][workload] for r in records]
        entry["runs"] = {
            name: [o["end_to_end"][name]["value"] for o in others]
            for name in entry["end_to_end"]
        }
        for name, value in entry["end_to_end"].items():
            value["value"] = statistics.median(entry["runs"][name])
        walls = [w for o in others for w in o["passes"]["cal_walls_s"]]
        quart = record.quartiles(walls)
        entry["passes"].update(
            cal_walls_s=walls, cal_p25_s=quart["p25"],
            cal_median_s=quart["median"], cal_p75_s=quart["p75"],
        )
        for loop in entry["calibration"]:
            entry["calibration"][loop] = statistics.median(
                o["calibration"][loop] for o in others
            )
        entry["failed"] = max(o["failed"] for o in others)
        if any(o["stat_digest"] != entry["stat_digest"] for o in others):
            entry["stat_digest"] = "differs-within-set"
    return merged  # type: ignore[no-any-return]


def selfcheck(seed: int, bench: Dict[str, Any]) -> int:
    """Two sets of ``SELFCHECK_RUNS`` untraced runs of this tree, taken
    alternately so that a slow spell of the host lands on both."""
    sets: Dict[str, List[Dict[str, Any]]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(
        prefix="selfcheck-", dir=record.LEDGER_DIR / "out"
    ) as scratch:
        for index in range(SELFCHECK_RUNS):
            for side in ("a", "b"):
                out = Path(scratch) / f"{side}{index}"
                command = [
                    sys.executable, str(record.LEDGER_DIR / "run.py"),
                    "--seed", str(seed), "--trace", "0", "--out", str(out),
                ]
                done = subprocess.run(
                    command, stdout=subprocess.DEVNULL, check=False
                )
                if done.returncode != 0:
                    print(f"selfcheck: run {side}{index} exited "
                          f"with {done.returncode}")
                    return 1
                sets[side].append(load(out / "ledger.json", bench))
    first, second = median_record(sets["a"]), median_record(sets["b"])
    status = 0
    for title, base, new in (("set b against set a", first, second),
                             ("set a against set b", second, first)):
        rows = compare(base, new, bench)
        print(f"{title} (medians of {SELFCHECK_RUNS} runs each)")
        print(format_rows(rows))
        if any(row["verdict"] == "regressed" for row in rows):
            status = 1
    print(calibration_note(first, second))
    mismatched = digest_mismatches(first, second)
    if mismatched:
        print(f"stat_digest differs on: {', '.join(mismatched)}")
        status = 1
    print("selfcheck: " + ("agree" if status == 0 else "DISAGREE"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("records", nargs="*", type=Path,
                        help="BASE.json NEW.json")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = record.load_benchmark()
    if args.selfcheck:
        (record.LEDGER_DIR / "out").mkdir(exist_ok=True)
        return selfcheck(args.seed, bench)
    if len(args.records) != 2:
        parser.error("give BASE.json and NEW.json, or --selfcheck")
    base, new = (load(path, bench) for path in args.records)
    rows = compare(base, new, bench)
    print(format_rows(rows))
    print(version_note(base, new) + calibration_note(base, new))
    same_inputs = all(
        base["provenance"][key] == new["provenance"][key]
        for key in ("seed", "scale")
    )
    mismatched = digest_mismatches(base, new) if same_inputs else []
    if mismatched:
        print(f"stat_digest differs on: {', '.join(mismatched)} "
              "(simulated results changed)")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
