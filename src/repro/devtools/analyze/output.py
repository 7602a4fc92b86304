"""Report rendering for ``repro analyze``: text and JSON."""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence

from repro.devtools.analyze.model import Finding

TOOL_NAME = "repro-analyze"


def render_text(
    findings: Sequence[Finding],
    summary_line: str,
) -> str:
    lines = [finding.format() for finding in findings]
    if findings:
        lines.append(f"repro analyze: {len(findings)} error(s)")
    else:
        lines.append("repro analyze: clean")
    lines.append(summary_line)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    stats: Dict[str, Any],
) -> str:
    payload = {
        "tool": TOOL_NAME,
        "errors": len(findings),
        "findings": [f.to_dict() for f in findings],
        "stats": stats,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
