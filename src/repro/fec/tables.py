"""WebRTC's static FEC protection table.

WebRTC's media-optimization module picks a protection factor from an
empirically derived table keyed by the measured loss rate, and doubles
it for keyframes (§3.3).  The paper measures this table to be
aggressive: ~40 extra FEC packets per 100 media packets already at 1%
loss (Fig. 12), climbing with loss.  The table below reproduces that
measured envelope.
"""

from __future__ import annotations

from bisect import bisect_left

# (loss-rate upper bound, delta-frame protection factor).  The flow
# backends read this table too (repro.flow), so an edit here moves
# both fidelities.
_PROTECTION_TABLE = (
    (0.002, 0.00),
    (0.005, 0.30),
    (0.010, 0.40),
    (0.020, 0.43),
    (0.030, 0.45),
    (0.050, 0.48),
    (0.070, 0.50),
    (0.100, 0.55),
    (0.150, 0.60),
    (1.000, 0.65),
)

KEYFRAME_MULTIPLIER = 2.0

# The table's columns, for lookup by bisection.
_BOUNDS = tuple(bound for bound, _ in _PROTECTION_TABLE)
_FACTORS = tuple(factor for _, factor in _PROTECTION_TABLE)


def webrtc_protection_factor(loss_rate: float, is_keyframe: bool = False) -> float:
    """Protection factor (FEC packets per media packet) from the table."""
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss rate out of range: {loss_rate}")
    # The first row whose bound the loss rate does not exceed; the
    # last bound is 1.0, so there always is one.
    factor = _FACTORS[bisect_left(_BOUNDS, loss_rate)]
    if is_keyframe:
        factor = min(factor * KEYFRAME_MULTIPLIER, 1.0)
    return factor
