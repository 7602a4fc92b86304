"""Per-path pacer.

WebRTC never dumps a whole encoded frame onto the wire at once; the
pacer smooths each burst out at a multiple of the target rate so the
delay-based estimator sees queue growth caused by the *network*, not by
the sender's own bursts.  We implement the same idea per path: packets
are queued and released at ``pacing_factor * path_rate``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List

from repro.simulation.simulator import Simulator

# Real WebRTC paces at 2.5x target, but its trendline copes with the
# resulting sawtooth micro-queues better than a least-squares fit on a
# simulated clean link does; 1.5x keeps the delay-based estimator's
# operating point near capacity while still draining frame bursts well
# within a frame interval.
_DEFAULT_PACING_FACTOR = 1.5
_MIN_PACING_RATE = 300_000.0


class _Lane:
    """One path's pacing state: its queue, rate and release chain."""

    __slots__ = ("path_id", "queue", "rate", "releasing")

    def __init__(self, path_id: int) -> None:
        self.path_id = path_id
        self.queue: Deque[object] = deque()
        self.rate = 0.0
        # True while a release is posted: at most one is ever pending.
        self.releasing = False


class Pacer:
    """Releases queued packets per path at a paced rate."""

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[object, int], None],
        pacing_factor: float = _DEFAULT_PACING_FACTOR,
    ) -> None:
        self.sim = sim
        self._send_fn = send_fn
        self.pacing_factor = pacing_factor
        self._lanes: Dict[int, _Lane] = {}

    def _lane(self, path_id: int) -> _Lane:
        lane = self._lanes.get(path_id)
        if lane is None:
            lane = self._lanes[path_id] = _Lane(path_id)
        return lane

    def set_path_rate(self, path_id: int, rate_bps: float) -> None:
        """Update the target rate the pacer multiplies for ``path_id``."""
        self._lane(path_id).rate = max(rate_bps, 0.0)

    def enqueue(self, packet: object, path_id: int) -> None:
        """Queue ``packet`` for paced transmission on ``path_id``."""
        lane = self._lanes.get(path_id) or self._lane(path_id)
        lane.queue.append(packet)
        if not lane.releasing:
            lane.releasing = True
            self.sim.post(0.0, self._release, lane)

    def _release(self, lane: _Lane) -> None:
        queue = lane.queue
        if not queue:
            lane.releasing = False
            return
        packet = queue.popleft()
        self._send_fn(packet, lane.path_id)
        pacing_rate = lane.rate * self.pacing_factor
        if pacing_rate < _MIN_PACING_RATE:
            pacing_rate = _MIN_PACING_RATE
        self.sim.post(packet.size_bytes * 8 / pacing_rate, self._release, lane)

    def queued_packets(self, path_id: int) -> int:
        lane = self._lanes.get(path_id)
        return len(lane.queue) if lane is not None else 0

    def drain_path(self, path_id: int) -> List[object]:
        """Pull everything queued for ``path_id`` and forget the path.

        Used when a path dies mid-call: the still-queued packets are
        returned to the caller (which reroutes the ones worth saving)
        instead of being paced into a link that no longer exists.  The
        lane is retired with its queue emptied, so a release already
        posted for it still dispatches and finds nothing to do.
        """
        lane = self._lanes.pop(path_id, None)
        if lane is None:
            return []
        queued = list(lane.queue)
        lane.queue.clear()
        return queued
