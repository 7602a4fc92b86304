"""The finding model every rule of ``repro analyze`` emits.

Every rule (R004-R007, R100, R101; see DEVTOOLS.md) reports the same
:class:`Finding`: a ``file:line``, which is all a fix needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List


class Severity(enum.Enum):
    """How a finding affects the exit code.

    Every rule reports ``ERROR`` findings, which fail the run (exit
    code 1): the point of a determinism analyzer is that violations
    block merges.
    """

    ERROR = "error"


#: Rule identifiers, kept stable for waivers and excludes.
RULE_SUMMARIES: Dict[str, str] = {
    "R004": "float ==/!= on a time or rate value",
    "R005": "hot-path class lacks __slots__",
    "R006": "lambda/nested function into pool submit or event queue",
    "R007": "mutable default argument",
    "R100": "analysis scope or syntax error",
    "R101": "nondeterminism source in, or harness import from, "
    "simulated code",
}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding."""

    file: str
    line: int
    rule: str
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        return (
            f"{self.file}:{self.line}: {self.rule} "
            f"[{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity.value,
        }


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: file, line, rule, message."""
    return sorted(
        findings, key=lambda f: (f.file, f.line, f.rule, f.message)
    )
