"""Receiver-side FEC group tracking and recovery accounting.

Maps arriving media packets and FEC packets onto their XOR groups
(:class:`~repro.fec.xor.XorFecGroup`) and reports recoveries so the
session can inject the recovered packet into the packet buffer.  Also
keeps the FEC *utilization* statistic the paper reports: the fraction
of received FEC packets that actually recovered a loss.

All sequence numbers handled here are *unwrapped* (the session owns
the per-stream unwrapper), so groups survive 16-bit wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set

from repro.fec.xor import XorFecGroup


@dataclass
class FecTrackerStats:
    fec_received: int = 0
    recoveries: int = 0

    @property
    def utilization(self) -> float:
        if self.fec_received == 0:
            return 0.0
        return self.recoveries / self.fec_received


class FecTracker:
    """Tracks XOR groups for one stream."""

    def __init__(self, max_groups: int = 256) -> None:
        self.stats = FecTrackerStats()
        self.max_groups = max_groups
        self._groups: Dict[int, XorFecGroup] = {}  # fec unwrapped seq -> group
        # Min-heap of the keys of _groups, one entry per registration:
        # the oldest group is found without scanning the dict.
        self._expiry: List[int] = []
        self._seq_to_groups: Dict[int, List[int]] = {}
        # Media packets can arrive before the FEC packet describing
        # their group; remember recent arrivals to back-fill.
        self._arrived: Set[int] = set()
        self._highest_arrival = -1

    def on_media_packet(self, seq: int) -> Optional[int]:
        """Record a media arrival (unwrapped seq).

        Returns a recovered seq if this arrival completed a group that
        had both a loss and its FEC packet waiting.
        """
        self._arrived.add(seq)
        if seq > self._highest_arrival:
            self._highest_arrival = seq
        if len(self._arrived) > 16384:
            self._prune_arrivals()
        for fec_seq in self._seq_to_groups.get(seq, ()):
            group = self._groups.get(fec_seq)
            if group is None:
                continue
            group.mark_media_received(seq)
            recovered = self._attempt(group)
            if recovered is not None:
                return recovered
        return None

    def on_fec_packet(
        self, fec_seq: int, protected_seqs: List[int]
    ) -> Optional[int]:
        """Record a FEC arrival; returns a recovered seq if any."""
        self.stats.fec_received += 1
        group = self._groups.get(fec_seq)
        if group is None:
            group = XorFecGroup(fec_seq=fec_seq, protected_seqs=protected_seqs)
            for seq in protected_seqs:
                if seq in self._arrived:
                    group.mark_media_received(seq)
            self._register(group)
        group.mark_fec_received()
        return self._attempt(group)

    def _attempt(self, group: XorFecGroup) -> Optional[int]:
        recovered = group.try_recover()
        if recovered is not None:
            self.stats.recoveries += 1
            self._arrived.add(recovered)
        return recovered

    def _register(self, group: XorFecGroup) -> None:
        self._groups[group.fec_seq] = group
        heappush(self._expiry, group.fec_seq)
        for seq in group.protected_seqs:
            self._seq_to_groups.setdefault(seq, []).append(group.fec_seq)
        if len(self._groups) > self.max_groups:
            self._expire_oldest()

    def _expire_oldest(self) -> None:
        oldest = heappop(self._expiry)
        group = self._groups.pop(oldest)
        for seq in group.protected_seqs:
            fecs = self._seq_to_groups.get(seq)
            if fecs and oldest in fecs:
                fecs.remove(oldest)
                if not fecs:
                    del self._seq_to_groups[seq]

    def _prune_arrivals(self) -> None:
        if len(self._arrived) > 16384:
            horizon = self._highest_arrival - 8192
            self._arrived = {s for s in self._arrived if s >= horizon}

    @property
    def active_groups(self) -> int:
        return len(self._groups)
