"""Plain-text table formatting for experiment output."""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned plain-text table."""
    text_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
