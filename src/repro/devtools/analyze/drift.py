"""R103 — dual-implementation drift detection.

The repo keeps deliberately duplicated logic: ``FlowCall.run`` states
the flow model as a scalar loop, and ``repro.flow.batch`` re-derives
the same math vectorized.  Runtime suites (``tests/test_flow_batch.py``,
``tests/test_fleet_properties.py``) prove the sides agree *today*; this
pass makes an edit that touches one side and not the other fail
statically, before anyone waits on a test matrix.

Pairs are declared in-source with marker comments::

    # drift: pair(flow-batch) ref
    def run(self) -> CallResult:
        ...

A marker above a ``def`` (stackable, several pairs per function)
covers the whole function; elsewhere it opens a block closed by
``# drift: end``.  Each side's *hash* is the sha256 over its regions'
normalized-AST hashes — whitespace and comments don't count, semantic
edits do.  The committed baseline stores the acknowledged hash per
side; the rule fires when exactly one side moved (drift), when both
moved without re-acknowledgement, and on structural errors
(single-sided or unknown pairs, stale baseline entries).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.devtools.analyze.model import Finding
from repro.devtools.analyze.symbols import DriftRegion, ModuleSummary

SIDES = ("impl", "ref")

#: pair name -> side -> list of (rel_path, region)
PairMap = Dict[str, Dict[str, List[Tuple[str, DriftRegion]]]]


def collect_pairs(summaries: List[ModuleSummary]) -> PairMap:
    pairs: PairMap = {}
    for summary in sorted(summaries, key=lambda s: s.rel_path):
        for region in summary.regions:
            side_map = pairs.setdefault(region.pair, {})
            side_map.setdefault(region.side, []).append(
                (summary.rel_path, region)
            )
    return pairs


def side_hash(regions: List[Tuple[str, DriftRegion]]) -> str:
    """Order-stable hash of one side: all region hashes, in file/line
    order, digested together."""
    ordered = sorted(regions, key=lambda item: (item[0], item[1].line))
    payload = "\n".join(
        f"{path}#{region.hash}" for path, region in ordered
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def current_pair_hashes(pairs: PairMap) -> Dict[str, Dict[str, str]]:
    return {
        name: {
            side: side_hash(regions)
            for side, regions in sorted(sides.items())
        }
        for name, sides in sorted(pairs.items())
    }


def _anchor(regions: List[Tuple[str, DriftRegion]]) -> Tuple[str, int]:
    path, region = sorted(
        regions, key=lambda item: (item[0], item[1].line)
    )[0]
    return path, region.line


def run_drift(
    summaries: List[ModuleSummary],
    acknowledged: Dict[str, Dict[str, str]],
) -> Tuple[List[Finding], Dict[str, Dict[str, str]]]:
    """Compare declared pairs against acknowledged hashes.

    Returns (findings, current-hashes).  ``current-hashes`` is what
    ``--update-pairs`` writes back into the baseline.
    """
    findings: List[Finding] = []

    for summary in summaries:
        for line, message in summary.marker_errors:
            findings.append(
                Finding(
                    file=summary.rel_path,
                    line=line,
                    rule="R100",
                    message=f"drift marker error: {message}",
                )
            )

    pairs = collect_pairs(summaries)
    current = current_pair_hashes(pairs)

    for name in sorted(pairs):
        sides = pairs[name]
        missing = [side for side in SIDES if side not in sides]
        if missing:
            present = [side for side in SIDES if side in sides]
            path, line = _anchor(sides[present[0]])
            findings.append(
                Finding(
                    file=path,
                    line=line,
                    rule="R103",
                    message=(
                        f"pair '{name}' declares only its "
                        f"'{present[0]}' side; add the matching "
                        f"'{missing[0]}' marker(s)"
                    ),
                )
            )
            continue

        known = acknowledged.get(name)
        if known is None:
            path, line = _anchor(sides["impl"])
            findings.append(
                Finding(
                    file=path,
                    line=line,
                    rule="R103",
                    message=(
                        f"pair '{name}' is not acknowledged in the "
                        "baseline; verify both sides agree at runtime "
                        "(tests/test_flow_batch.py and friends), then "
                        "run `repro analyze --update-pairs`"
                    ),
                )
            )
            continue

        changed = [
            side
            for side in SIDES
            if current[name].get(side) != known.get(side)
        ]
        if len(changed) == 1:
            moved = changed[0]
            frozen = SIDES[0] if moved == SIDES[1] else SIDES[1]
            path, line = _anchor(sides[moved])
            findings.append(
                Finding(
                    file=path,
                    line=line,
                    rule="R103",
                    message=(
                        f"pair '{name}' drifted: its '{moved}' side "
                        f"changed but its '{frozen}' side did not; "
                        "apply the matching edit to the other side "
                        "(the runtime equivalence suite pins them "
                        "byte-identical), then run "
                        "`repro analyze --update-pairs`"
                    ),
                )
            )
        elif len(changed) == 2:
            path, line = _anchor(sides["impl"])
            findings.append(
                Finding(
                    file=path,
                    line=line,
                    rule="R103",
                    message=(
                        f"pair '{name}': both sides changed since last "
                        "acknowledgement; re-run the runtime "
                        "equivalence suite, then `repro analyze "
                        "--update-pairs` to re-acknowledge"
                    ),
                )
            )

    for name in sorted(acknowledged):
        if name not in pairs:
            findings.append(
                Finding(
                    file=".repro-analyze-baseline.json",
                    line=1,
                    rule="R103",
                    message=(
                        f"baseline acknowledges pair '{name}' but no "
                        "such markers exist in the tree; remove the "
                        "entry with `repro analyze --update-pairs`"
                    ),
                )
            )

    return findings, current
