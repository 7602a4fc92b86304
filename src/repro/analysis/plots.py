"""Terminal plotting: sparklines and block time-series.

No matplotlib in the sandbox; these render well enough in any terminal
to eyeball the Fig. 9/11 time series.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_BAR_CHAR = "█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """One-line unicode sparkline of ``values``.

    ``width`` resamples the series to that many columns (mean-pooled).
    """
    if not values:
        return ""
    data = list(values)
    if width is not None and width > 0 and len(data) > width:
        data = _resample(data, width)
    lo, hi = min(data), max(data)
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * len(data)
    out = []
    for v in data:
        level = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[level])
    return "".join(out)


def _resample(data: List[float], width: int) -> List[float]:
    """Mean-pool ``data`` down to ``width`` buckets."""
    out = []
    n = len(data)
    for i in range(width):
        start = i * n // width
        end = max((i + 1) * n // width, start + 1)
        bucket = data[start:end]
        out.append(sum(bucket) / len(bucket))
    return out


def render_series(
    samples: Sequence[Tuple[float, float]],
    height: int = 8,
    width: int = 72,
    title: str = "",
) -> str:
    """Multi-row block chart of a (time, value) series."""
    if not samples:
        return title
    values = _resample([v for _, v in samples], width)
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    rows = []
    for row in range(height, 0, -1):
        threshold = lo + span * (row - 0.5) / height
        line = "".join(_BAR_CHAR if v >= threshold else " " for v in values)
        rows.append(line)
    t0, t1 = samples[0][0], samples[-1][0]
    header = f"{title}  [{lo:.2f} .. {hi:.2f}]" if title else f"[{lo:.2f} .. {hi:.2f}]"
    footer = f"t={t0:.0f}s{' ' * max(width - 16, 1)}t={t1:.0f}s"
    return "\n".join([header, *rows, footer])
