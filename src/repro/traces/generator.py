"""Stochastic building blocks for synthetic capacity traces."""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.net.trace import BandwidthTrace


def ou_capacity_trace(
    rng: random.Random,
    duration: float,
    mean_bps: float,
    std_bps: float,
    theta: float = 0.3,
    dt: float = 0.5,
    floor_bps: float = 100_000.0,
    ceil_bps: float = 60_000_000.0,
) -> List[Tuple[float, float]]:
    """Ornstein-Uhlenbeck capacity samples around ``mean_bps``.

    Cellular capacity under light mobility behaves like a
    mean-reverting noisy process; theta controls how fast it reverts,
    std the spread.  Returns ``(time, bps)`` samples at ``dt`` spacing.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    samples: List[Tuple[float, float]] = []
    value = mean_bps
    t = 0.0
    sigma = std_bps * math.sqrt(2 * theta)
    # ``sigma * sqrt(dt) * noise`` multiplies left to right, so the
    # hoisted step scale leaves every sample bit for bit as it was.
    step_sigma = sigma * math.sqrt(dt)
    while t <= duration:
        samples.append((t, min(max(value, floor_bps), ceil_bps)))
        noise = rng.gauss(0.0, 1.0)
        value += theta * (mean_bps - value) * dt + step_sigma * noise
        t += dt
    return samples


def markov_fade_envelope(
    rng: random.Random,
    duration: float,
    dt: float = 0.5,
    p_enter_fade: float = 0.01,
    fade_duration_range: Tuple[float, float] = (4.0, 12.0),
    fade_depth_range: Tuple[float, float] = (0.02, 0.25),
) -> List[Tuple[float, float]]:
    """A multiplicative fade envelope in [0, 1].

    Models coverage holes: with probability ``p_enter_fade`` per step
    the link drops to a small fraction of its capacity for a few
    seconds, then recovers — the deep fades visible in the driving
    traces of Fig. 22.
    """
    samples: List[Tuple[float, float]] = []
    t = 0.0
    fade_until = -1.0
    fade_depth = 1.0
    while t <= duration:
        if t < fade_until:
            envelope = fade_depth
        else:
            envelope = 1.0
            if rng.random() < p_enter_fade:
                fade_until = t + rng.uniform(*fade_duration_range)
                fade_depth = rng.uniform(*fade_depth_range)
                envelope = fade_depth
        samples.append((t, envelope))
        t += dt
    return samples


def combine_trace(
    base: List[Tuple[float, float]],
    envelope: List[Tuple[float, float]],
    floor_bps: float = 50_000.0,
) -> BandwidthTrace:
    """Multiply a capacity series by a fade envelope into a trace."""
    if len(base) != len(envelope):
        raise ValueError("base and envelope must have equal length")
    return BandwidthTrace(
        [
            (t, max(bps * env, floor_bps))
            for (t, bps), (_, env) in zip(base, envelope)
        ]
    )
