"""Committed analyzer baseline (`.repro-analyze-baseline.json`).

It holds one thing: the acknowledged hash of each side of every
dual-implementation pair R103 watches (see :mod:`.drift`), rewritten by
``repro analyze --update-pairs``.  Findings are never staged here: a
correct-by-design line carries a ``# lint: ok(Rxxx)`` waiver, a module
whose purpose is a rule's target is a per-rule exclude, and anything
else gets fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

FORMAT_VERSION = 2


class BaselineError(ValueError):
    """Raised for an unreadable/malformed baseline file."""


@dataclass
class Baseline:
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
    pairs = data.get("pairs", {})
    if not isinstance(pairs, dict):
        raise BaselineError(f"baseline {path}: 'pairs' must be an object")
    return Baseline(
        pairs={
            str(name): {str(s): str(h) for s, h in sides.items()}
            for name, sides in pairs.items()
            if isinstance(sides, dict)
        },
    )


def save_baseline(path: Path, baseline: Baseline) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "pairs": {
            name: dict(sorted(sides.items()))
            for name, sides in sorted(baseline.pairs.items())
        },
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
