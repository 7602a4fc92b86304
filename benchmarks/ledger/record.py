"""The ledger's record format: metric declarations, provenance, validation.

``BENCHMARK.json`` at the repo root is the one place metric names,
units, directions and bounds are declared; this module reads it, so the
driver, ``compare.py`` and the tests cannot disagree about them.
Stdlib only — the parent process never imports numpy or ``repro``, so
the workload children do not inherit its resident set.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SCHEMA = "repro-ledger/1"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())  # type: ignore[no-any-return]


def workload_names(bench: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in bench["workloads"]]


def declared(bench: Dict[str, Any], section: str) -> Dict[str, Dict[str, Any]]:
    """``end_to_end`` / ``per_layer`` declarations keyed by metric name."""
    return {m["name"]: m for m in bench[section]}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """p25 / median / p75 the way the acceptance driver computes them."""
    if len(values) < 2:
        only = float(values[0])
        return {"p25": only, "median": only, "p75": only}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"p25": q1, "median": q2, "p75": q3}


def with_units(
    values: Dict[str, float], declarations: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Attach declared units; refuse undeclared or missing metrics."""
    missing = sorted(set(declarations) - set(values))
    extra = sorted(set(values) - set(declarations))
    if missing or extra:
        raise ValueError(
            f"metrics do not match BENCHMARK.json: missing={missing} "
            f"undeclared={extra}"
        )
    return {
        name: {"value": values[name], "unit": declarations[name]["unit"]}
        for name in declarations
    }


# ---------------------------------------------------------------------------
# Provenance


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=20,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` off Linux)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fstype = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def provenance(seed: int, scale: str, scratch: Path) -> Dict[str, Any]:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "nproc": os.cpu_count(),
        "cache_dir_fs": filesystem_of(scratch),
        "seed": seed,
        "scale": scale,
    }


# ---------------------------------------------------------------------------
# Validation


def _metric_problems(
    where: str, metrics: Any, declarations: Dict[str, Dict[str, Any]]
) -> List[str]:
    if not isinstance(metrics, dict):
        return [f"{where}: not an object"]
    problems = []
    for name in declarations:
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"{where}: bad metric name {name!r}")
        if name not in declarations:
            problems.append(f"{where}: metric {name} not in BENCHMARK.json")
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{where}: {name} is not {{value, unit}}")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} value is not a number")
        if entry["unit"] != declarations[name]["unit"]:
            problems.append(f"{where}: {name} unit differs from BENCHMARK.json")
    return problems


def validate_record(record: Any, bench: Dict[str, Any]) -> List[str]:
    """Schema faults of one ledger record; empty means valid.

    A record may hold the untraced half, the traced half or both of
    each workload it ran; whichever half is present must be complete.
    """
    if not isinstance(record, dict):
        return ["record is not an object"]
    problems: List[str] = []
    if record.get("schema") != SCHEMA:
        problems.append(f"schema is not {SCHEMA}")
    prov = record.get("provenance")
    if not isinstance(prov, dict):
        problems.append("provenance missing")
    else:
        for key in ("git_commit", "git_dirty", "python", "numpy", "nproc",
                    "cache_dir_fs", "seed", "scale"):
            if key not in prov:
                problems.append(f"provenance.{key} missing")
    workloads = record.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["workloads missing"]
    known = set(workload_names(bench))
    for name, entry in workloads.items():
        if name not in known:
            problems.append(f"workload {name} not in BENCHMARK.json")
            continue
        if "end_to_end" not in entry and "per_layer" not in entry:
            problems.append(f"{name}: neither end_to_end nor per_layer")
        if "end_to_end" in entry:
            problems += _metric_problems(
                f"{name}.end_to_end", entry["end_to_end"],
                declared(bench, "end_to_end"),
            )
            passes = entry.get("passes")
            if not isinstance(passes, dict) or not passes.get("walls_s"):
                problems.append(f"{name}: passes.walls_s missing")
            for key in ("attempted", "failed", "failed_share", "stat_digest",
                        "raw", "checks", "calibration"):
                if key not in entry:
                    problems.append(f"{name}: {key} missing")
        if "per_layer" in entry:
            problems += _metric_problems(
                f"{name}.per_layer", entry["per_layer"],
                declared(bench, "per_layer"),
            )
    return problems
