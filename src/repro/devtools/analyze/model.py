"""The finding model every rule of ``repro analyze`` emits.

Local rules (R004-R007) and the whole-program rule (R101, see
DEVTOOLS.md) report the same :class:`Finding`; a taint finding also
carries the full source-to-sink call chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail the run (exit code 1); ``WARNING``
    findings are printed but do not gate.  Every rule reports errors —
    the point of a determinism analyzer is that violations block
    merges — and warnings are kept for configuration that names
    nothing (an unresolved root).
    """

    WARNING = "warning"
    ERROR = "error"


#: Rule identifiers, kept stable for waivers and excludes.
RULE_SUMMARIES: Dict[str, str] = {
    "R004": "float ==/!= on a time or rate value",
    "R005": "hot-path class lacks __slots__",
    "R006": "lambda/nested function into pool submit or event queue",
    "R007": "mutable default argument",
    "R100": "analysis configuration or syntax error",
    "R101": "nondeterminism source in or reachable from simulated code",
}


@dataclass(frozen=True)
class Location:
    """One step of a call chain: a function (or call site) in a file."""

    file: str
    line: int
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"file": self.file, "line": self.line, "label": self.label}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, optionally carrying a call chain.

    ``chain`` runs from the analysis root (e.g. ``Simulator.run``) to
    the function containing the sink; the finding's own ``file:line``
    is the sink itself.
    """

    file: str
    line: int
    rule: str
    message: str
    severity: Severity = Severity.ERROR
    chain: Tuple[Location, ...] = field(default_factory=tuple)

    def format(self) -> str:
        head = (
            f"{self.file}:{self.line}: {self.rule} "
            f"[{self.severity.value}] {self.message}"
        )
        if not self.chain:
            return head
        steps = "\n".join(
            f"    {'->' if i else '  '} {loc.label} ({loc.file}:{loc.line})"
            for i, loc in enumerate(self.chain)
        )
        return f"{head}\n{steps}"

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity.value,
        }
        if self.chain:
            payload["chain"] = [loc.to_dict() for loc in self.chain]
        return payload


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: file, line, rule, message."""
    return sorted(
        findings, key=lambda f: (f.file, f.line, f.rule, f.message)
    )
