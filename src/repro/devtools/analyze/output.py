"""Report rendering for ``repro analyze``: text, JSON and SARIF.

SARIF output targets the 2.1.0 schema so CI systems (GitHub code
scanning included) can ingest the findings directly; taint call chains
are rendered as ``relatedLocations`` (root first, sink last) and every
result carries the same stable fingerprint the baseline file uses.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.devtools.analyze.model import RULE_SUMMARIES, Finding, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-analyze"
TOOL_VERSION = "1.0.0"
FINGERPRINT_KEY = "reproAnalyze/v1"


def render_text(
    findings: Sequence[Finding],
    summary_line: str,
) -> str:
    lines = [finding.format() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append(
            f"repro analyze: {errors} error(s), {warnings} warning(s)"
        )
    else:
        lines.append("repro analyze: clean")
    lines.append(summary_line)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    stats: Dict[str, Any],
) -> str:
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    payload = {
        "tool": TOOL_NAME,
        "errors": errors,
        "warnings": len(findings) - errors,
        "findings": [f.to_dict() for f in findings],
        "stats": stats,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_location(
    file: str, line: int, text: str = ""
) -> Dict[str, Any]:
    location: Dict[str, Any] = {
        "physicalLocation": {
            "artifactLocation": {"uri": file},
            "region": {"startLine": max(line, 1)},
        }
    }
    if text:
        location["message"] = {"text": text}
    return location


def sarif_document(findings: Sequence[Finding]) -> Dict[str, Any]:
    """Build the SARIF 2.1.0 document as a plain dict."""
    rules = [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": summary},
        }
        for rule_id, summary in sorted(RULE_SUMMARIES.items())
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": (
                "error"
                if finding.severity is Severity.ERROR
                else "warning"
            ),
            "message": {"text": finding.message},
            "locations": [_sarif_location(finding.file, finding.line)],
            "fingerprints": {FINGERPRINT_KEY: finding.fingerprint()},
        }
        if finding.chain:
            result["relatedLocations"] = [
                _sarif_location(step.file, step.line, step.label)
                for step in finding.chain
            ]
        results.append(result)
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    return json.dumps(sarif_document(findings), indent=2, sort_keys=True)
