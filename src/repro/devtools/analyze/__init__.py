"""The static analyzer (``repro analyze``).

One pass parses every file once and runs every rule on the tree: the
local rules R004-R007 and R101, nondeterminism sources in simulated
code (:data:`repro.experiments.cells.SIMULATED_MODULES`).  See
DEVTOOLS.md.
"""

from repro.devtools.analyze.engine import (
    AnalysisResult,
    add_analyze_arguments,
    analyze_tree,
    main,
    run_analyze,
)
from repro.devtools.analyze.model import (
    RULE_SUMMARIES,
    Finding,
    Severity,
    sort_findings,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "RULE_SUMMARIES",
    "Severity",
    "add_analyze_arguments",
    "analyze_tree",
    "main",
    "run_analyze",
    "sort_findings",
]
