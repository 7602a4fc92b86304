"""NACK generation from stream-level sequence gaps.

Multipath reordering means a gap is not evidence of loss, so the
generator waits a reorder window before NACKing, retries a bounded
number of times, and abandons sequences that became irrelevant (their
frame was dropped) or too old to matter for real-time playback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.rtp.sequence import SEQ_MOD
from repro.simulation.process import PeriodicProcess
from repro.simulation.simulator import Simulator

# How often the generator scans its missing set for due NACKs.
_CHECK_INTERVAL = 0.01


@dataclass
class NackConfig:
    """Timing and retry policy for NACK generation."""

    # Multipath skew reorders stream-level sequence numbers routinely;
    # wait at least this long before treating a gap as loss.  The
    # effective window adapts upward to the observed reordering depth.
    reorder_window: float = 0.05
    max_reorder_window: float = 0.25
    retry_interval: float = 0.1
    max_retries: int = 4
    give_up_after: float = 1.0
    max_gap: int = 500  # a gap larger than this is a stream reset
    # Cap on tracked missing sequences (WebRTC clears its NACK list on
    # overflow rather than flooding retransmissions).
    max_outstanding: int = 300

    def __post_init__(self) -> None:
        if self.reorder_window < 0 or self.retry_interval <= 0:
            raise ValueError("invalid NACK timing")


@dataclass
class _MissingSeq:
    unwrapped_seq: int
    first_seen: float
    retries: int = 0
    last_nack: Optional[float] = None


class NackGenerator:
    """Tracks missing sequence numbers for one stream and emits NACKs."""

    def __init__(
        self,
        sim: Simulator,
        ssrc: int,
        send_nack: Callable[[List[int]], None],
        config: NackConfig | None = None,
    ) -> None:
        self.sim = sim
        self.ssrc = ssrc
        self.config = config or NackConfig()
        self._send_nack = send_nack
        self._highest: Optional[int] = None
        self._missing: Dict[int, _MissingSeq] = {}
        self.nacks_sent = 0
        self.seqs_nacked = 0
        self.false_nacks = 0
        # Adaptive reorder window: tracks how late "missing" packets
        # that eventually showed up really were, so systematic
        # cross-path skew stops producing spurious NACKs.
        self._reorder_estimate = self.config.reorder_window
        self._process = PeriodicProcess(sim, _CHECK_INTERVAL, self._check)

    def on_packet(self, unwrapped: int, repaired: bool = False) -> None:
        """Record arrival of an unwrapped stream-level sequence number.

        ``repaired`` marks arrivals produced by recovery (an RTX or a
        FEC reconstruction): those clear the missing entry but say
        nothing about reordering — a NACK answered by its own
        retransmission was a *successful* NACK, not a false one.
        """
        entry = self._missing.pop(unwrapped, None)
        if entry is not None and not repaired:
            lateness = self.sim.now - entry.first_seen
            if entry.last_nack is not None:
                # We NACKed a packet that was merely reordered: widen
                # the window toward the observed depth.
                self.false_nacks += 1
                self._reorder_estimate = min(
                    max(self._reorder_estimate, lateness * 1.2),
                    self.config.max_reorder_window,
                )
            else:
                # Quietly shrink back when reordering calms down.
                self._reorder_estimate = max(
                    self.config.reorder_window,
                    self._reorder_estimate * 0.995,
                )
        if self._highest is None:
            self._highest = unwrapped
            return
        if unwrapped > self._highest:
            gap = unwrapped - self._highest - 1
            if 0 < gap <= self.config.max_gap:
                now = self.sim.now
                for missing in range(self._highest + 1, unwrapped):
                    self._missing[missing] = _MissingSeq(
                        unwrapped_seq=missing, first_seen=now
                    )
            if len(self._missing) > self.config.max_outstanding:
                # Overflow: a burst this large is congestion, not
                # isolated loss — drop the oldest entries and let the
                # frame-timeout path deal with it.
                for seq in sorted(self._missing)[
                    : len(self._missing) - self.config.max_outstanding
                ]:
                    del self._missing[seq]
            self._highest = unwrapped

    def cancel(self, unwrapped_seq: int) -> None:
        """Stop chasing a sequence whose frame was dropped."""
        self._missing.pop(unwrapped_seq, None)

    def _check(self) -> None:
        if not self._missing:
            return
        now = self.sim.now
        config = self.config
        to_nack: List[int] = []
        expired: List[int] = []
        for seq, entry in self._missing.items():
            age = now - entry.first_seen
            if age > config.give_up_after or entry.retries > config.max_retries:
                expired.append(seq)
                continue
            due = (
                entry.last_nack is None and age >= self._reorder_estimate
            ) or (
                entry.last_nack is not None
                and now - entry.last_nack >= config.retry_interval
            )
            if due:
                to_nack.append(seq)
                entry.retries += 1
                entry.last_nack = now
        for seq in expired:
            del self._missing[seq]
        if to_nack:
            self.nacks_sent += 1
            self.seqs_nacked += len(to_nack)
            self._send_nack([seq % SEQ_MOD for seq in sorted(to_nack)])

    def stop(self) -> None:
        self._process.stop()

    @property
    def outstanding(self) -> int:
        return len(self._missing)

    @property
    def reorder_window(self) -> float:
        """The current (adaptive) reorder window in seconds."""
        return self._reorder_estimate
