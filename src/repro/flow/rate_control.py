"""Steady-state approximation of the GCC rate controller.

The packet-level core runs the full delay-gradient pipeline
(arrival-time trendline, overuse detector, AIMD, probe-burst capacity
estimation, loss-based branch).  At flow fidelity the controller keeps
the regimes that pipeline moves through, driven by the fluid
queue-delay signal from :class:`repro.flow.link.FlowLink`:

- **ramp** — 8 %/s multiplicative increase while the path is
  saturated (the sender actually offered ~the target; an idle path's
  estimate stays frozen, exactly like the packet core where no
  feedback means no AIMD updates),
- **probe jumps** — the packet sender fires an 8-packet padding burst
  every 2 s on each healthy media-carrying path (PROBE_BWE); its
  arrival spacing measures capacity (diluted by per-packet jitter)
  and the estimate jumps to ``min(0.85 * estimate, 4 * rate)`` — this
  is what takes the packet GCC from ~1.15 Mbps to several Mbps in one
  step at t ~ 2.1 s of every golden trace.  The session replays the
  same 2 s cadence and the same gates (healthy, carrying media, loss
  under 8 %, no standing queue).  Above ~4.3 Mbps the pacer's
  inter-packet gap drops under the probe send-gap threshold and every
  media frame itself becomes a probe burst — that second channel is
  what lets the packet-level multipath paths climb from ~4 Mbps to
  link capacity in under a second, so the session replays it too,
- **overuse backoff** — a standing queue above the detector
  threshold, or a burst-loss window that trips the trendline, cuts to
  ``0.85 * delivered`` and latches a link-capacity estimate; from then
  on, increase near that estimate is *additive* (about one MTU per
  response time) and capped at ``1.5 * delivered`` — the sticky
  plateau the packet-level single-path systems settle into,
- **loss-based branch** — a parallel rate that mimics RTCP-report
  dynamics: +5 % per report under 2 % loss, multiplicative cut above
  10 %; burst losses are *diluted* by the report's packet count, so a
  fast path shrugs off a burst that pins a slow one,
- **watchdog decay** — multiplicative decay while feedback is dark or
  the path is in outage (driven by the session,
  :meth:`SteadyStateGcc.decay`).

The regimes read two windowed signals, both 1 s EWMAs whose first
sample seeds the window directly.  *Delivered*: the packet core's
incoming-rate estimator reports the actual arrival rate from its first
window, never a zero-biased warm-up, and a cold EWMA here would let
the ``1.5 x delivered`` saturation cap choke the ramp at the first
frame.  *Offered*: the packet core's ``path_saturated`` check compares
the target against a trailing window of *acked sends*, which lags a
probe jump by up to a second — during that transient the path reads as
unsaturated, so neither the cap nor the multiplicative ramp applies and
the jumped rate simply holds; the instantaneous offered rate would
re-engage the cap one frame after every jump and strangle it.

:class:`SteadyStateGcc` holds the per-path state; the step itself is
written out in the two implementations of the flow model, the scalar
loop (:meth:`repro.flow.session.FlowCall.run`) and the array program
(:mod:`repro.flow.batch`).

Every constant lives at module scope so the cross-validation
tolerance methodology (EXPERIMENTS.md) can point at one place.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.gcc import GccConfig

# Multiplicative increase per second while saturated (GCC's 1.08).
GROWTH_PER_SECOND = 1.08
# Standing queue delay that trips the overuse detector
# (repro.cc.gcc._STANDING_QUEUE_DELAY).
OVERUSE_QUEUE_DELAY = 0.08
# Overuse cut factor applied to the delivered rate (AIMD beta).
BACKOFF_FACTOR = 0.85
# Hold-off after an overuse cut before increasing again.
HOLD_SECONDS = 0.25
# Probability per burst-loss step that the trendline misreads the
# burst's arrival gaps as overuse (observed in packet traces: bursty
# paths occasionally take a delay-based cut with no standing queue).
BURST_OVERUSE_PROBABILITY = 0.18
# Loss level that counts as a burst for the misfire draw.
BURST_LOSS_FLOOR = 0.15
# One padding probe burst's measurable payload: the packet sender
# fires 8 x 800 B back-to-back every 2 s (core.sender) and the GCC
# estimator rates the burst over ``run[1:]`` — seven packets.
PROBE_RUN_BITS = 7 * 800 * 8
# Arrival-time jitter spread across a probe burst.  The burst leaves
# back-to-back but arrives smeared by per-packet jitter, so the
# measured rate is run_bits / (jitter_span + serialization) — a padding
# burst's estimate saturates around ~5 Mbps however fast the link is,
# which is exactly what the packet traces show (a ~14 Mbps driving
# path probes at ~4.9 Mbps at t = 2.1 s); the larger frame bursts of
# the fast-pacing regime amortize the jitter and measure capacity
# nearly exactly.
PROBE_JITTER_SPAN = 0.006
# AIMD near-convergence window around the latched capacity estimate.
NEAR_CONVERGENCE_WINDOW = 0.25
# Loss-based branch report interval and thresholds (loss_based.py).
LOSS_REPORT_INTERVAL = 0.1
LOSS_CUT_THRESHOLD = 0.10
LOSS_PROBE_THRESHOLD = 0.02
# Expected packets a Gilbert-Elliott burst destroys (dwell * loss).
BURST_EXPECTED_LOSSES = 2.0
# RTT smoothing gain (classic SRTT).
RTT_SMOOTHING = 0.125
# Delivered-rate EWMA time constant (the 1 s acked-bytes window).
DELIVERED_WINDOW = 1.0

_MTU_BITS = 1200 * 8


class SteadyStateGcc:
    """Per-path flow-level congestion controller."""

    __slots__ = (
        "rate",
        "loss_rate",
        "srtt",
        "frozen",
        "delivered",
        "offered_avg",
        "_min_rate",
        "_hold_until",
        "_capacity_estimate",
        "_loss_report_accum",
    )

    def __init__(self, config: GccConfig, base_rtt: float) -> None:
        self.rate = float(config.initial_rate)
        self.loss_rate = float(config.initial_rate)
        self.srtt = max(base_rtt, 1e-3)
        # While True the controller neither grows nor cuts (feedback
        # blackout: the sender flies blind on a stale estimate).
        self.frozen = False
        self.delivered = 0.0
        self.offered_avg = 0.0
        self._min_rate = float(config.min_rate)
        self._hold_until = 0.0
        self._capacity_estimate: Optional[float] = None
        self._loss_report_accum = 0.0

    def decay(self, dt: float, factor: float, interval: float) -> None:
        """Watchdog decay while the path is silent or in outage."""
        scaled = factor ** (dt / interval)
        self.rate = max(self.rate * scaled, self._min_rate)
        self.loss_rate = max(self.loss_rate * scaled, self._min_rate)
