"""Time-varying bandwidth traces.

A :class:`BandwidthTrace` is a step function from simulation time to
link capacity in bits per second.  Traces either come from the synthetic
scenario generators in :mod:`repro.traces` (stationary / walking /
driving, per Appendix D of the paper) or are built inline for the
controlled experiments (e.g. the capacity drop in Figure 11).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple


class BandwidthTrace:
    """Piecewise-constant capacity over time.

    Samples are ``(time_seconds, bits_per_second)`` pairs sorted by
    time.  Capacity before the first sample equals the first sample's
    value; after the last sample the trace either holds the final value
    or wraps around (loops), matching how trace-driven emulators replay
    drive logs for calls longer than the log.
    """

    def __init__(
        self,
        samples: Iterable[Tuple[float, float]],
        loop: bool = False,
    ) -> None:
        pairs: List[Tuple[float, float]] = sorted(samples)
        if not pairs:
            raise ValueError("trace requires at least one sample")
        for _, bps in pairs:
            if bps < 0:
                raise ValueError("capacity must be non-negative")
        self._times = [t for t, _ in pairs]
        self._values = [v for _, v in pairs]
        if self._times[0] != 0.0:
            # Anchor the trace at t=0 so lookups before the first sample
            # are well defined.
            self._times.insert(0, 0.0)
            self._values.insert(0, self._values[0])
        self.loop = loop
        self.duration = self._times[-1]

    @classmethod
    def constant(cls, bps: float) -> "BandwidthTrace":
        """A trace with fixed capacity ``bps``."""
        return cls([(0.0, bps)])

    def capacity_at(self, time: float) -> float:
        """Return the capacity in bits/second at simulation ``time``."""
        if time < 0:
            raise ValueError("time must be non-negative")
        if self.loop and self.duration > 0:
            time = time % self.duration
        index = bisect_right(self._times, time) - 1
        return self._values[index if index > 0 else 0]

    def step_runs(self, dt: float, steps: int) -> List[Tuple[float, int]]:
        """:meth:`sample_steps` run-length encoded: ``(capacity, count)``.

        One run per trace segment the steps reach, in step order, so a
        caller pays per segment, not per step.  A run starts at the
        first step the per-step rule puts in its segment: ``ceil(t /
        dt)`` only estimates it, and the rule's own float test, ``i *
        dt >= t``, settles it.  A looping trace (no scenario loops)
        keeps a per-step walk.
        """
        if self.loop and self.duration > 0:
            return [(self.capacity_at(i * dt), 1) for i in range(steps)]
        times = self._times
        values = self._values
        last = len(times) - 1
        runs: List[Tuple[float, int]] = []
        start = 0
        index = 0
        while start < steps:
            end = steps
            if index < last:
                t = times[index + 1]
                end = min(max(math.ceil(t / dt), start), steps)
                while end > start and (end - 1) * dt >= t:
                    end -= 1
                while end < steps and end * dt < t:
                    end += 1
            if end > start:
                runs.append((values[index], end - start))
                start = end
            index += 1
        return runs

    def sample_steps(self, dt: float, steps: int) -> List[float]:
        """Capacities at ``i * dt`` for ``i in range(steps)``: what
        :meth:`capacity_at` returns step by step, built from
        :meth:`step_runs`."""
        out: List[float] = []
        for value, count in self.step_runs(dt, steps):
            out += [value] * count
        return out

    def samples(self) -> Sequence[Tuple[float, float]]:
        """Return the underlying ``(time, bps)`` samples."""
        return list(zip(self._times, self._values))

    def scaled(self, factor: float) -> "BandwidthTrace":
        """Return a copy with every capacity multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return BandwidthTrace(
            [(t, v * factor) for t, v in zip(self._times, self._values)],
            loop=self.loop,
        )
