"""Statistics over experiment series."""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Empirical percentile with linear interpolation, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100]: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Mean / std / min / p50 / p95 / max of a sample."""
    if not values:
        raise ValueError("describe of empty sequence")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return {
        "n": float(n),
        "mean": mean,
        "std": math.sqrt(variance),
        "min": min(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "max": max(values),
    }


# Indices gathered per block of resamples: keeps the transient arrays
# (some thirty bytes per index) cache-sized whatever the sample size.
_BOOTSTRAP_BLOCK = 1 << 14


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    seed_label: str = "bootstrap",
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for the sample mean.

    Resampling replays, as an array program, the stream of a
    :class:`random.Random` seeded from ``seed_label`` (hashed, not
    Python's salted ``hash``): the generator's 32-bit outputs are taken
    in bulk, filtered by ``randrange``'s own rule (top
    ``n.bit_length()`` bits, redrawn while ``>= n``), and each resample
    is summed left to right in draw order.  The interval is therefore
    bit-for-bit what ``resamples * n`` scalar ``rng.randrange(n)``
    draws give (tests/test_fleet.py keeps that loop as the oracle) — a
    deterministic function of the sample and the label, so fleet
    reports are byte-identical run to run, and independent of resample
    order across shard merges because the statistics are computed
    after aggregation.
    """
    if not values:
        raise ValueError("bootstrap_ci of empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    if resamples < 1:
        raise ValueError("need at least one resample")
    n = len(values)
    if n == 1:
        return values[0], values[0]
    # Imported here so packet-only users of this module stay numpy-free.
    import numpy as np

    digest = hashlib.sha256(seed_label.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    bits = n.bit_length()
    sample = np.asarray(values, dtype=np.float64)
    means = np.empty(resamples)
    accepted = np.empty(0, dtype=np.uint32)
    block = max(_BOOTSTRAP_BLOCK // n, 1)
    for lo in range(0, resamples, block):
        rows = min(block, resamples - lo)
        while len(accepted) < rows * n:
            short = rows * n - len(accepted)
            # n / 2**bits of the words survive; a little over the
            # expected need, and the loop covers an unlucky shortfall.
            count = (short << bits) // n + short // 64 + 64
            # randbytes is successive generator outputs laid out
            # little-endian: the 32-bit words that many ``randrange``
            # attempts would consume one by one.
            words = np.frombuffer(rng.randbytes(4 * count), dtype="<u4")
            draw = words >> (32 - bits)
            accepted = np.concatenate((accepted, np.compress(draw < n, draw)))
        picked = sample[accepted[:rows * n].reshape(rows, n)]
        accepted = accepted[rows * n:]
        # accumulate adds strictly left to right (``.sum()`` pairs terms
        # and differs in the last bit); ``+ 0.0`` is the scalar loop's
        # ``total = 0.0`` start, which only matters for an all ``-0.0`` row.
        totals = np.add.accumulate(picked, axis=1)[:, -1] + 0.0
        means[lo:lo + rows] = totals / n
    # Sorted once here; percentile's own sort of a sorted list is linear.
    ordered = sorted(means.tolist())
    alpha = 1.0 - confidence
    return (
        percentile(ordered, 100.0 * (alpha / 2.0)),
        percentile(ordered, 100.0 * (1.0 - alpha / 2.0)),
    )
