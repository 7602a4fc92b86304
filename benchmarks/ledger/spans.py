"""In-memory span recorder for the ledger's traced run.

The ledger instruments nothing inside ``src/repro``: every span here is
opened by the benchmark around a call it makes into a layer's public
function.  Spans are kept in a list and written to ``trace.jsonl`` once
the run is over, so recording costs two clock reads and one append.

A span is ``{id, parent, name, workload, pass, start, end}``; ``name``
starts with the layer (package of ``src/repro``) it times, ``pass``
says which traced pass or probe opened it.  A layer's *self time* is
its span's duration minus the part its children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional

Span = Dict[str, Any]


class Tracer:
    """Records nested spans for one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.pass_label = ""
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record: Span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "pass": self.pass_label,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def named(self, name: str, pass_label: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (pass_label is None or s["pass"] == pass_label)
        ]


def duration(span: Span) -> float:
    return float(span["end"] - span["start"])


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    spans = list(spans)
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def layer_of(name: str) -> str:
    """``experiments.cache.get`` -> ``experiments.cache``; ``core.run_call`` -> ``core``."""
    parts = name.split(".")
    if parts[0] == "experiments" and len(parts) > 2:
        return ".".join(parts[:2])
    return parts[0]


# Clock readings of a child may sit this far outside its parent's.
SLACK_S = 1e-6


def tree_problems(spans: Iterable[Span]) -> List[str]:
    """Well-formedness faults: orphan parents, children outside their
    parent's interval, negative durations or self times."""
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}
    problems: List[str] = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ends before it starts")
        parent = s["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"span {s['id']} has unknown parent {parent}")
            continue
        p = by_id[parent]
        if s["start"] < p["start"] - SLACK_S or s["end"] > p["end"] + SLACK_S:
            problems.append(f"span {s['id']} leaves its parent {parent}")
    for span_id, own in self_times(spans).items():
        if own < -SLACK_S:
            problems.append(f"span {span_id} has negative self time {own}")
    return problems


def write_jsonl(spans: Iterable[Span], path: Path) -> None:
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: Path) -> List[Span]:
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]
