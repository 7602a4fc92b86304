"""Machine calibration: fixed loops whose speed depends on nothing in
``src/repro``.

The hosts this ledger runs on change speed under it: identical passes
measured here took between 1.2 s and 2.4 s of *user* CPU, in episodes
lasting tens of seconds (README.md, "Why calibrated seconds").  So a
timed child runs a slice of both loops before and after every timed
pass and expresses each pass in *calibrated seconds*: wall seconds times
the speed the host showed around that pass, relative to a reference
host that runs the loops at ``REFERENCE_OPS_PER_S``.  Each workload
names the share of its pass that is array work (``numpy_share`` in
``workloads.py``); the speed it is calibrated by weighs the two loops
accordingly.  ``harness-cache`` names none and stays on the host clock.

Both loops run on the interpreter and the numpy of the day, so a record
taken under another Python or numpy version is not comparable on
``cells_per_cal_s``; provenance carries both versions.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional

PY_OPS = 400_000
# Arrays as wide as the fleet-wide batch: like the array program, the
# loop is bound by numpy's per-call cost, not by memory bandwidth, and
# its temporaries stay below malloc's mmap threshold (a 20 000-element
# loop ran at 1e8 or 5e8 ops/s depending on what the process had
# allocated before).
NP_ELEMENTS = 512
NP_ROUNDS = 8_000
NP_OPS = NP_ELEMENTS * NP_ROUNDS
SLICE_LOOPS = 4
REFERENCE_OPS_PER_S = {"python": 1.0e7, "numpy": 1.0e8}
REPEATS = 3


def _python_loop() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(PY_OPS):
        total += i & 255
        table[i & 1023] = total
    return total


def _numpy_loop() -> float:
    import numpy as np

    a = np.arange(NP_ELEMENTS, dtype=np.float64)
    total = 0.0
    for _ in range(NP_ROUNDS):
        total += float(np.where(a > total, a * 1.0001, a + 1.0).sum())
    return total


LOOPS: Dict[str, Callable[[], object]] = {
    "python": _python_loop, "numpy": _numpy_loop,
}
OPS = {"python": PY_OPS, "numpy": NP_OPS}


def slice_speeds() -> Dict[str, float]:
    """Host speed on each loop relative to the reference host (1.0 = as
    fast), each averaged over one slice."""
    speeds = {}
    for name, loop in LOOPS.items():
        start = perf_counter()
        for _ in range(SLICE_LOOPS):
            loop()
        seconds = (perf_counter() - start) / SLICE_LOOPS
        speeds[name] = OPS[name] / seconds / REFERENCE_OPS_PER_S[name]
    return speeds


def blend(speeds: Dict[str, float], numpy_share: Optional[float]) -> float:
    """Speed of a host on work that is ``numpy_share`` array work: the
    time-weighted (harmonic) mean of the two loop speeds.  ``None`` is
    work no single-threaded loop stands for: it stays on the host clock."""
    if numpy_share is None:
        return 1.0
    return 1.0 / (
        numpy_share / speeds["numpy"] + (1.0 - numpy_share) / speeds["python"]
    )


def _best_rate(loop: Callable[[], object], ops: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        loop()
        best = min(best, perf_counter() - start)
    return ops / best


def both() -> Dict[str, float]:
    """Best-of-a-few rate of each loop (interference only slows a loop)."""
    return {
        "py_ops_per_s": _best_rate(_python_loop, PY_OPS),
        "np_ops_per_s": _best_rate(_numpy_loop, NP_OPS),
    }
