"""R101 — transitive nondeterminism taint.

Seeds: wall-clock reads, global-RNG draws, environment reads and OS
entropy (collected per function by :mod:`.symbols`).  The analysis
walks the call graph breadth-first from the configured roots — the
packages that run inside a cell, plus ``execute_cell`` — and every
reachable function containing a source hit yields one finding per
distinct source call, carrying the root→sink call chain.

Scope is the whole point: a ``time.time()`` in the runner's wall-time
accounting is fine, the same call two frames below the event loop
breaks golden determinism.  Rooting whole packages makes every
function of simulated code a root (stored callbacks included, which no
call graph sees), and reachability adds whatever they call outside.
A deliberate source is waived on its line with ``# lint: ok(R101)``
or excluded per path under ``[tool.repro-analyze.exclude]``; the
engine applies both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.analyze.callgraph import ProgramIndex
from repro.devtools.analyze.model import Finding, Location

#: Human wording per source category.
_CATEGORY_TEXT = {
    "wall-clock": "wall-clock read",
    "global-rng": "global RNG draw",
    "env-read": "environment read",
    "os-entropy": "OS entropy read",
}


def reachable_from(
    index: ProgramIndex, roots: Sequence[str]
) -> Dict[str, Optional[Tuple[str, int]]]:
    """BFS reachability with parent pointers.

    Returns ``{function: (parent, call line) | None-for-roots}`` for
    every function reachable from ``roots``.  Iteration order is made
    deterministic by visiting sorted roots and per-function edge lists
    in recorded order.
    """
    parents: Dict[str, Optional[Tuple[str, int]]] = {}
    queue: List[str] = []
    for root in sorted(set(roots)):
        if root in index.functions and root not in parents:
            parents[root] = None
            queue.append(root)
    while queue:
        current = queue.pop(0)
        for edge in index.edges.get(current, []):
            if edge.callee in parents:
                continue
            parents[edge.callee] = (current, edge.line)
            queue.append(edge.callee)
    return parents


def _chain_to(
    index: ProgramIndex,
    parents: Dict[str, Optional[Tuple[str, int]]],
    sink: str,
) -> Tuple[Location, ...]:
    """Root→sink chain of :class:`Location` steps."""
    hops: List[Tuple[str, Optional[int]]] = []  # (fn, line called from)
    current: Optional[str] = sink
    call_line: Optional[int] = None
    while current is not None:
        hops.append((current, call_line))
        parent = parents.get(current)
        if parent is None:
            break
        current, call_line = parent[0], parent[1]
    hops.reverse()
    chain: List[Location] = []
    for position, (fn, _line) in enumerate(hops):
        file, line, label = index.location_of(fn)
        if position + 1 < len(hops):
            next_call_line = hops[position + 1][1]
            if next_call_line is not None:
                line = next_call_line
        chain.append(Location(file=file, line=line, label=label))
    return tuple(chain)


def run_taint(index: ProgramIndex, roots: Sequence[str]) -> List[Finding]:
    """Produce R101 findings for every reachable source."""
    parents = reachable_from(index, roots)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    for fn in sorted(parents):
        summary, info = index.functions[fn]
        if not info.source_hits:
            continue
        chain = _chain_to(index, parents, fn)
        where = f"`{summary.module}.{info.qualname}`"
        if len(chain) > 1:
            where += (
                f", reachable from root `{chain[0].label}` "
                f"({len(chain) - 1} call(s) deep)"
            )
        else:
            where += ", a root"
        for hit in info.source_hits:
            key = (summary.rel_path, hit.line, hit.call)
            if key in seen:
                continue
            seen.add(key)
            category = _CATEGORY_TEXT.get(hit.category, hit.category)
            findings.append(
                Finding(
                    file=summary.rel_path,
                    line=hit.line,
                    rule="R101",
                    message=(
                        f"{category} `{hit.call}` in {where}; "
                        "simulated code must be deterministic"
                    ),
                    chain=chain,
                )
            )
    return findings
