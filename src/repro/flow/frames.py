"""Frame outcome model: loss draws, FEC protection, recovery, RTX.

The packet core tracks every RTP packet through queues, loss models,
FEC groups, and the NACK machinery.  At flow fidelity a frame's fate
on a path is decided in one shot:

1. draw lost media packets ``~ Binomial(n, loss)`` (plus any queue
   overflow the link reported),
2. draw surviving FEC packets the same way and recover up to that many
   losses — the group-code approximation of the packet core's
   XOR-group recovery,
3. any remainder goes through up to :data:`MAX_RTX_ROUNDS` retransmit
   rounds, each adding one SRTT to the frame's completion time, after
   which the frame is failed on that path.

Protection overhead comes from the same policies the packet core uses,
with the same constants: the WebRTC loss-rate table
(:mod:`repro.fec.tables`) with fractional carry, or the Converge
controller's loss-proportional rule (the constants of
:mod:`repro.fec.converge_controller`) with its QoE-feedback beta
(approximated here by its decay plus an uncovered-loss bump — the
NACK-driven signal collapsed to the frame outcome we just computed).

The decision itself is written out per path in the two implementations
of the flow model, the scalar loop (:meth:`repro.flow.session.FlowCall
.run`) and the array program (:mod:`repro.flow.batch`); this module
holds what they share beyond that: the retransmission budget, the
binomial sampler both replay and the per-path protection state.
"""

from __future__ import annotations

import random

from repro.core.config import FecMode
from repro.fec.converge_controller import _BETA_MAX

# Retransmission rounds before a frame is abandoned on a path (matches
# the packet core's NACK retry budget).
MAX_RTX_ROUNDS = 2

# Uncovered-loss bump: how strongly a frame that FEC failed to cover
# raises beta, standing in for the controller's NACK-window rule.
_BETA_BUMP = 0.5


def binomial_from_uniform(u: float, n: int, p: float) -> int:
    """Binomial(n, p) quantile of ``u`` for ``n >= 1`` and ``0 < p < 1``.

    The multiplicative PMF walk costs O(expected successes) per call,
    which for per-frame loss rates (p << 1) is a couple of iterations.
    Split from :func:`binomial_draw` so that the batch backend, which
    draws its uniforms in bulk, replays this very recurrence.
    """
    q = 1.0 - p
    ratio = p / q
    prob = q**n
    cumulative = prob
    k = 0
    while cumulative < u and k < n:
        k += 1
        prob *= ratio * (n - k + 1) / k
        cumulative += prob
    return k


def binomial_draw(rng: random.Random, n: int, p: float) -> int:
    """Inverse-transform Binomial(n, p) draw.

    ``random.Random`` has no binomial sampler on the floor Python this
    repo supports; :func:`binomial_from_uniform` is cheaper than n
    Bernoulli draws and exactly reproducible from the stream.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    return binomial_from_uniform(rng.random(), n, p)


class PathFec:
    """Per-path FEC protection state at flow fidelity."""

    __slots__ = ("mode", "beta", "_carry", "_last_update")

    def __init__(self, mode: FecMode) -> None:
        self.mode = mode
        self.beta = 1.0
        self._carry = 0.0
        self._last_update = 0.0

    def on_uncovered_loss(self, now: float, uncovered: int, media_packets: int) -> None:
        """A frame needed RTX: raise beta like the NACK window would."""
        if self.mode is not FecMode.CONVERGE or media_packets <= 0:
            return
        proposed = 1.0 + _BETA_BUMP * uncovered
        if proposed > self.beta:
            self.beta = min(proposed, _BETA_MAX)
        self._last_update = now
