"""Committed analyzer baseline (`.repro-analyze-baseline.json`).

Works like a lockfile for findings: pre-existing findings listed here
pass CI, anything new fails it, and entries whose finding disappeared
are reported as *stale* so the file shrinks over time instead of
rotting.  The same file acknowledges dual-implementation pair hashes
for R103 (see :mod:`.drift`).

Finding identity is the line-number-free fingerprint from
:meth:`repro.devtools.analyze.model.Finding.fingerprint`, so moving
code around does not churn the baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.devtools.analyze.model import Finding, Severity

FORMAT_VERSION = 1


class BaselineError(ValueError):
    """Raised for an unreadable/malformed baseline file."""


@dataclass
class Baseline:
    findings: Dict[str, str] = field(default_factory=dict)
    pairs: Dict[str, Dict[str, str]] = field(default_factory=dict)


def load_baseline(path: Path) -> Baseline:
    if not path.exists():
        return Baseline()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BaselineError(f"baseline {path} must hold a JSON object")
    findings = data.get("findings", {})
    pairs = data.get("pairs", {})
    if not isinstance(findings, dict) or not isinstance(pairs, dict):
        raise BaselineError(
            f"baseline {path}: 'findings' and 'pairs' must be objects"
        )
    return Baseline(
        findings={str(k): str(v) for k, v in findings.items()},
        pairs={
            str(name): {str(s): str(h) for s, h in sides.items()}
            for name, sides in pairs.items()
            if isinstance(sides, dict)
        },
    )


def save_baseline(path: Path, baseline: Baseline) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "findings": dict(sorted(baseline.findings.items())),
        "pairs": {
            name: dict(sorted(sides.items()))
            for name, sides in sorted(baseline.pairs.items())
        },
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )


def describe(finding: Finding) -> str:
    """Human hint stored next to a fingerprint in the baseline."""
    return f"{finding.rule} {finding.file}: {finding.message}"


def apply_baseline(
    findings: List[Finding], baseline: Baseline
) -> Tuple[List[Finding], int, List[Finding]]:
    """Split findings into (new, baselined-count, stale-warnings).

    Stale baseline entries — fingerprints with no matching finding —
    come back as WARNING findings anchored at the baseline file so the
    report nudges toward pruning them.
    """
    current = {f.fingerprint(): f for f in findings}
    fresh = [
        f for f in findings if f.fingerprint() not in baseline.findings
    ]
    matched = len(findings) - len(fresh)
    stale = [
        Finding(
            file=".repro-analyze-baseline.json",
            line=1,
            rule="R100",
            message=(
                f"stale baseline entry {fingerprint} ({hint}); the "
                "finding no longer occurs — refresh with "
                "`repro analyze --update-baseline`"
            ),
            severity=Severity.WARNING,
        )
        for fingerprint, hint in sorted(baseline.findings.items())
        if fingerprint not in current
    ]
    return fresh, matched, stale
