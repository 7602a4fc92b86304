"""The static analyzer (``repro analyze``).

One pass parses every file once, runs the local rules (R004-R007) on
the tree, builds a package-wide symbol table and call graph from the
same tree, then checks the invariant no single file shows:
nondeterminism sources in or reachable from simulated code (R101).
See DEVTOOLS.md.
"""

from repro.devtools.analyze.callgraph import Edge, ProgramIndex
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
    Location,
    Severity,
    sort_findings,
)
from repro.devtools.analyze.symbols import (
    ModuleSummary,
    extract_module,
    module_name_of,
)

__all__ = [
    "AnalysisResult",
    "Edge",
    "Finding",
    "Location",
    "ModuleSummary",
    "ProgramIndex",
    "RULE_SUMMARIES",
    "Severity",
    "add_analyze_arguments",
    "analyze_tree",
    "extract_module",
    "main",
    "module_name_of",
    "run_analyze",
    "sort_findings",
]
