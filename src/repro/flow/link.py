"""Flow-level link model: capacity, queue backlog, loss environment.

One :class:`FlowLink` abstracts one emulated path
(:class:`repro.net.path.PathConfig`) at frame-interval granularity.
Instead of per-packet events it keeps three pieces of state:

- the *capacity* the bandwidth trace reports for the current instant
  (with fault overrides applied: blackout, capacity cap, outage floor),
- a fluid *queue backlog* in bytes, drained at capacity and fed by the
  bytes the session schedules onto the path each frame — the source of
  the queuing-delay signal the rate controller tracks and of overflow
  (congestion) loss,
- the *radio loss environment* for the step, derived from the same
  loss models the packet path uses: Bernoulli and scheduled rates are
  sampled directly; a Gilbert-Elliott chain is collapsed to per-step
  burst events (see :meth:`FlowLink.step_loss`).

The Gilbert-Elliott collapse rests on one assumption, checked against
the repo's scenario presets: the bad-state dwell (``1/p_bad_to_good``
packets, ~10 packets for every preset) is shorter than the packets a
frame puts on the wire, so a burst lands *inside* one frame interval.
A step then either contains a burst (probability
``1 - (1 - p_good_to_bad)^n``) with elevated loss over the burst's
expected footprint, or it sees the good-state loss.  The expected
long-run loss rate is preserved exactly; what the collapse gives up is
correlation of bursts *across* frames (see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.net.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    ScheduledLoss,
)
from repro.net.path import _OUTAGE_CAPACITY_BPS, PathConfig


class FlowLink:
    """One path of a flow-level call: fluid queue + sampled loss."""

    __slots__ = (
        "path_id",
        "config",
        "propagation_delay",
        "backlog_bytes",
        "step_caps",
        "capacity_cap",
        "loss_override",
        "extra_delay",
        "queue_cap_override",
        "_trace",
        "_queue_capacity",
        "_base_loss",
        "_burst_loss",
        "_burst_packets",
        "_log_stay_good",
        "_scheduled",
    )

    def __init__(self, config: PathConfig) -> None:
        self.path_id = config.path_id
        self.config = config
        self.propagation_delay = config.propagation_delay
        self.backlog_bytes = 0.0
        # Fault overrides, set by the session per active window.
        self.capacity_cap: Optional[float] = None
        self.loss_override: Optional[float] = None
        self.extra_delay = 0.0
        self.queue_cap_override: Optional[int] = None
        self._trace = config.trace
        # Float once here: the flow loop compares backlogs against it.
        self._queue_capacity = float(config.queue_capacity_bytes)
        self._scheduled: Optional[ScheduledLoss] = None
        self._base_loss = 0.0
        self._burst_loss = 0.0
        self._burst_packets = 0.0
        self._log_stay_good = 0.0
        self.step_caps: List[float] = []
        self._decompose_loss(config.loss_model)

    def _decompose_loss(self, model: LossModel) -> None:
        """Reduce the packet-level loss model to per-step parameters."""
        if isinstance(model, NoLoss):
            return
        if isinstance(model, BernoulliLoss):
            self._base_loss = model.rate
            return
        if isinstance(model, ScheduledLoss):
            self._scheduled = model
            return
        if isinstance(model, GilbertElliottLoss):
            self._base_loss = model.good_loss
            self._burst_loss = model.bad_loss
            if model.p_bad_to_good > 0:
                self._burst_packets = 1.0 / model.p_bad_to_good
            else:
                self._burst_packets = float("inf")
            if model.p_good_to_bad < 1.0:
                self._log_stay_good = math.log1p(-model.p_good_to_bad)
            else:
                self._log_stay_good = float("-inf")
            return
        # Unknown model: fall back to its stationary rate.
        self._base_loss = model.long_run_rate()

    # -- capacity ----------------------------------------------------------

    def precompute(self, dt: float, steps: int) -> None:
        """Tabulate :meth:`capacity` per frame step, faults aside.

        ``step_caps[i]`` equals ``capacity(i * dt)`` whenever no
        capacity cap is set, so the session's hot loop reads it
        directly and calls :meth:`capacity` only while a cap (a
        blackout or a capacity fault) is on the link.  Built per trace
        segment (:meth:`BandwidthTrace.step_runs`), the outage clamp
        applied once per run.
        """
        caps: List[float] = []
        for cap, count in self._trace.step_runs(dt, steps):
            caps += [0.0 if cap < _OUTAGE_CAPACITY_BPS else cap] * count
        self.step_caps = caps

    def capacity(self, now: float) -> float:
        """Effective capacity at ``now`` with fault overrides applied."""
        cap = self._trace.capacity_at(now)
        override = self.capacity_cap
        if override is not None and override < cap:
            cap = override
        if cap < _OUTAGE_CAPACITY_BPS:
            return 0.0
        return cap

    # -- queue -------------------------------------------------------------

    def queue_delay(self, capacity: float) -> float:
        """Seconds the current backlog takes to serialize."""
        if self.backlog_bytes <= 0.0:
            return 0.0
        if capacity <= 0.0:
            return float("inf")
        return self.backlog_bytes * 8.0 / capacity

    def push(
        self, dt: float, capacity: float, sent_bytes: float
    ) -> Tuple[float, float]:
        """Drain the queue for ``dt`` then enqueue this frame's bytes.

        Returns ``(queue_delay_after, overflow_bytes)`` — the delay the
        newly enqueued bytes see behind the standing backlog, and the
        bytes the drop-tail queue discarded (congestion loss).
        """
        backlog = self.backlog_bytes - capacity * dt / 8.0
        if backlog < 0.0:
            backlog = 0.0
        backlog += sent_bytes
        cap_bytes = float(
            self.queue_cap_override
            if self.queue_cap_override is not None
            else self._queue_capacity
        )
        overflow = backlog - cap_bytes
        if overflow > 0.0:
            backlog = cap_bytes
        else:
            overflow = 0.0
        self.backlog_bytes = backlog
        if capacity <= 0.0:
            return (float("inf") if backlog > 0.0 else 0.0), overflow
        return backlog * 8.0 / capacity, overflow

    # -- loss --------------------------------------------------------------

    def step_loss(
        self, now: float, packets: int, rng: random.Random
    ) -> Tuple[float, float]:
        """Per-step loss environment for ``packets`` on the wire.

        Returns ``(frame_loss, peak_loss)``: the per-packet loss
        probability applied to this frame's packets, and the loss level
        a window-based loss controller would observe (the undiluted
        burst rate when a burst lands in this step) — the signal the
        rate controller's loss-based braking consumes.
        """
        if self._scheduled is not None:
            rate = self._scheduled.rate_at(now)
            base, peak = rate, rate
        elif self._burst_loss > 0.0 and packets > 0:
            base, peak = self._base_loss, self._base_loss
            # P(the chain enters the bad state among n packets).
            p_burst = -math.expm1(self._log_stay_good * packets)
            if rng.random() < p_burst:
                # The burst covers its expected dwell within the frame.
                fraction = min(self._burst_packets / packets, 1.0)
                base = base + (self._burst_loss - base) * fraction
                peak = self._burst_loss
        else:
            base, peak = self._base_loss, self._base_loss
        override = self.loss_override
        if override is not None:
            if override > base:
                base = override
            if override > peak:
                peak = override
        return base, peak
