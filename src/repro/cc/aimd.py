"""AIMD rate controller of GCC's delay-based branch."""

from __future__ import annotations

from enum import Enum
from typing import Optional


class BandwidthUsage(Enum):
    """Overuse-detector output signal."""

    NORMAL = "normal"
    OVERUSE = "overuse"
    UNDERUSE = "underuse"


class RateControlState(Enum):
    HOLD = "hold"
    INCREASE = "increase"
    DECREASE = "decrease"


# The members as module constants, for code that runs per acked packet
# or per feedback: see ``repro.rtp.packets`` for why.
USAGE_NORMAL = BandwidthUsage.NORMAL
USAGE_OVERUSE = BandwidthUsage.OVERUSE
USAGE_UNDERUSE = BandwidthUsage.UNDERUSE
RATE_HOLD = RateControlState.HOLD
RATE_INCREASE = RateControlState.INCREASE
RATE_DECREASE = RateControlState.DECREASE


_BETA = 0.85
_MULTIPLICATIVE_INCREASE_PER_SECOND = 0.08
_NEAR_CONVERGENCE_WINDOW = 0.25  # +-25% of the last decrease point


class AimdRateController:
    """Additive-increase / multiplicative-decrease around link capacity.

    State machine per the GCC paper: overuse forces DECREASE (back off
    to ``beta * incoming_rate``), underuse forces HOLD (let queues
    drain), normal moves HOLD -> INCREASE.  Increase is multiplicative
    while far from the rate at which overuse last occurred, additive
    (one packet per response time) when near it.
    """

    def __init__(
        self,
        initial_rate: float,
        min_rate: float = 100_000.0,
        max_rate: float = 30_000_000.0,
    ) -> None:
        if initial_rate <= 0:
            raise ValueError("initial rate must be positive")
        self.rate = min(max(initial_rate, min_rate), max_rate)
        self.min_rate = min_rate
        self.max_rate = max_rate
        self.state = RATE_INCREASE
        self._last_update: Optional[float] = None
        self._link_capacity_estimate: Optional[float] = None

    def update(
        self,
        usage: BandwidthUsage,
        incoming_rate: float,
        now: float,
        rtt: float = 0.1,
        offered_rate: float | None = None,
    ) -> float:
        """Advance the state machine and return the new target rate.

        ``offered_rate`` is how fast the sender actually pushed packets
        onto this path.  When the path is underused (offered well below
        the target — common for the slower path of an uncoupled
        multipath sender), the incoming rate says nothing about the
        path's capacity, so the 1.5x-incoming cap must not apply or the
        estimate deadlocks at whatever trickle the scheduler sends.
        """
        self._transition(usage)
        elapsed = 0.0
        if self._last_update is not None:
            elapsed = max(now - self._last_update, 0.0)
        self._last_update = now
        path_saturated = (
            offered_rate is not None and offered_rate >= 0.75 * self.rate
        )

        if self.state is RATE_INCREASE:
            if self._near_convergence(incoming_rate):
                # Additive: about one MTU per response time.
                response_time = rtt + 0.1
                additive = 0.5 * 1200 * 8 / max(response_time, 1e-3)
                self.rate += additive * elapsed
            elif path_saturated:
                factor = (1 + _MULTIPLICATIVE_INCREASE_PER_SECOND) ** min(
                    elapsed, 1.0
                )
                self.rate *= factor
            # Never run more than 1.5x ahead of what is arriving — but
            # only when we genuinely tried to send at the target.
            if incoming_rate > 0 and path_saturated:
                self.rate = min(self.rate, 1.5 * incoming_rate + 10_000)
        elif self.state is RATE_DECREASE:
            base = incoming_rate if incoming_rate > 0 else self.rate
            self.rate = _BETA * base
            self._link_capacity_estimate = incoming_rate
            self.state = RATE_HOLD
        # HOLD: keep the rate.

        self.rate = min(max(self.rate, self.min_rate), self.max_rate)
        return self.rate

    def _transition(self, usage: BandwidthUsage) -> None:
        if usage is USAGE_OVERUSE:
            self.state = RATE_DECREASE
        elif usage is USAGE_UNDERUSE:
            self.state = RATE_HOLD
        else:  # NORMAL
            if self.state is RATE_HOLD:
                self.state = RATE_INCREASE
            elif self.state is RATE_DECREASE:
                self.state = RATE_HOLD

    def _near_convergence(self, incoming_rate: float) -> bool:
        if self._link_capacity_estimate is None:
            return False
        lower = (1 - _NEAR_CONVERGENCE_WINDOW) * self._link_capacity_estimate
        upper = (1 + _NEAR_CONVERGENCE_WINDOW) * self._link_capacity_estimate
        return lower <= incoming_rate <= upper
