"""Converge's path-specific, NACK-adaptive FEC controller (§4.3).

For path ``i`` carrying ``P_i`` packets with loss estimate ``l_i`` the
controller generates ``FEC_i = ceil(l_i * P_i * beta_i)`` packets.
``beta_i`` starts at 1 and is bumped whenever NACKs show the FEC was
insufficient: ``beta = 1 + NACK_i / (P_i - FEC_i)`` where ``P_i`` and
``FEC_i`` are the most recent scheduling round's counts and ``NACK_i``
the NACKs observed within the recent window — so a loss burst that
XOR groups could not cover raises protection within a round trip,
and the boost decays once NACKs stop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

_BETA_DECAY_PER_SECOND = 0.35
_BETA_MAX = 4.0
_NACK_WINDOW = 0.5
# Below this loss estimate a path gets no FEC at all.
_MIN_LOSS_FOR_FEC = 0.002
# Loss above this is congestion, GCC's problem rather than FEC's.
_MAX_PROTECTED_LOSS = 0.2
# Hard ceiling on the protection fraction per path: past ~25% the FEC
# bytes cost more QoE than the losses they might repair.
_MAX_PROTECTION = 0.25
# Expected-losses-per-round level above which a round is protected
# with one FEC packet even when the proportional count floors to 0.
_ROUND_UP_THRESHOLD = 0.15


@dataclass
class _PathFecState:
    beta: float = 1.0
    last_update: float = 0.0
    last_round_packets: int = 0
    last_round_fec: int = 0
    # Fractional FEC carried between rounds: ceil()-ing every small
    # round would floor the overhead at one packet per stream per
    # path per frame, which at 3 streams x 2 paths x 30 fps is ~1.7
    # Mbps of pure rounding error.
    fec_carry: float = 0.0
    nack_times: Deque[float] = field(default_factory=deque)


@dataclass
class ConvergeFecController:
    """Per-path FEC rate control with NACK-driven beta."""

    _paths: Dict[int, _PathFecState] = field(default_factory=dict)

    def _state(self, path_id: int) -> _PathFecState:
        return self._paths.setdefault(path_id, _PathFecState())

    def num_fec_packets(
        self, path_id: int, num_packets: int, loss_rate: float, now: float
    ) -> int:
        """FEC packets for ``num_packets`` scheduled on ``path_id``."""
        if num_packets <= 0:
            return 0
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        state = self._state(path_id)
        self._decay_beta(state, now)
        if loss_rate < _MIN_LOSS_FOR_FEC:
            state.last_round_packets = num_packets
            state.last_round_fec = 0
            return 0
        # Congestion loss is GCC's problem, not FEC's: protecting
        # against queue-overflow loss just adds load to the queue.
        loss_rate = min(loss_rate, _MAX_PROTECTED_LOSS)
        protection = min(loss_rate * state.beta, _MAX_PROTECTION)
        exact = protection * num_packets + state.fec_carry
        fec = min(int(exact), num_packets)  # never more FEC than media
        if fec == 0 and protection * num_packets >= _ROUND_UP_THRESHOLD:
            # A frame with a meaningful chance of losing a packet gets
            # at least one FEC packet: recovering inline is worth far
            # more than an RTX racing the playout deadline.  This is
            # what puts Converge at ~5% overhead at 1% loss (Fig. 12).
            fec = 1
        state.fec_carry = min(max(exact - fec, 0.0), 1.0)
        state.last_round_packets = num_packets
        state.last_round_fec = fec
        return fec

    def on_nack(self, path_id: int, nack_count: int, now: float) -> None:
        """NACKs mean FEC under-protected this path: raise beta (§4.3)."""
        if nack_count <= 0:
            return
        state = self._state(path_id)
        self._decay_beta(state, now)
        for _ in range(nack_count):
            state.nack_times.append(now)
        while state.nack_times and state.nack_times[0] < now - _NACK_WINDOW:
            state.nack_times.popleft()
        uncovered = max(state.last_round_packets - state.last_round_fec, 1)
        proposed = 1.0 + len(state.nack_times) / uncovered
        state.beta = min(max(state.beta, proposed), _BETA_MAX)

    def beta(self, path_id: int) -> float:
        return self._state(path_id).beta

    def forget_path(self, path_id: int) -> None:
        """Drop FEC state for a removed path.

        A later path reusing the id must start at beta = 1 instead of
        inheriting the dead path's NACK history and carry.
        """
        self._paths.pop(path_id, None)

    def _decay_beta(self, state: _PathFecState, now: float) -> None:
        elapsed = max(now - state.last_update, 0.0)
        state.last_update = now
        if elapsed > 0 and state.beta > 1.0:
            state.beta = 1.0 + (state.beta - 1.0) * math.exp(
                -_BETA_DECAY_PER_SECOND * elapsed
            )
