"""The Converge video-aware scheduler (§4.1).

Three levels of control:

1. *Frame/packet level*: priority packets (Table 2 — retransmissions,
   keyframe media, SPS, PPS) go on the fast path chosen by Algorithm 1
   (minimum completion time), spilling to the next-fastest paths when
   the fast path's ``P_max`` is exhausted.
2. *Media split*: plain delta-frame media is split across enabled
   paths proportionally to the per-path GCC rates (Eq. 1), capped by
   the Eq. 2 feedback-adjusted budgets.
3. FEC packets are generated per path by the FEC controller and are
   not re-scheduled here; if one is handed in anyway it stays on the
   path it was generated for (§4.1's accommodation exception).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Sequence

from repro.rtp.packets import (
    PACKET_FEC,
    RTP_HEADER_BYTES,
    RtpPacket,
    priority_of,
)
from repro.scheduling.base import DROP_PATH, Assignment, PathSnapshot, Scheduler


class ConvergeScheduler(Scheduler):
    """Video-aware, feedback-adjusted multipath scheduler."""

    @property
    def uses_qoe_feedback(self) -> bool:
        return True

    def assign(
        self,
        packets: Sequence[RtpPacket],
        paths: Sequence[PathSnapshot],
        now: float,
    ) -> Assignment:
        enabled = [p for p in paths if p.enabled]
        if not enabled:
            # All paths disabled: fall back to the least-bad path so the
            # call does not silently drop packets.
            enabled = [min(paths, key=lambda p: p.srtt)]
        if not packets:
            return []

        # One pass over the batch: find the largest payload and split the
        # packets into priority / plain-media / FEC groups (previously
        # four comprehensions, each re-deriving priority per packet).
        max_payload = 0
        prioritized: List = []  # (priority, packet) pairs
        media_packets: List[RtpPacket] = []
        fec_packets: List[RtpPacket] = []
        for packet in packets:
            payload = packet.payload_size
            if payload > max_payload:
                max_payload = payload
            packet_type = packet.packet_type
            if packet_type is PACKET_FEC:
                fec_packets.append(packet)
                continue
            priority = priority_of(packet_type)
            if priority is None:
                media_packets.append(packet)
            else:
                prioritized.append((priority, packet))
        # Stable sort on the priority key alone (the packet objects are
        # not comparable), matching sorted(..., key=lambda p: p.priority).
        prioritized.sort(key=itemgetter(0))
        priority_packets = [packet for _, packet in prioritized]

        max_size = RTP_HEADER_BYTES + max_payload
        ordered = self._paths_by_completion_time(
            enabled, len(packets), max_size
        )
        # Priority packets must not ride a path whose feedback has gone
        # silent (watchdog-degraded): its srtt/goodput are stale, so
        # Algorithm 1's completion times lie about it.  Keep the cpt
        # ordering but demote degraded paths behind every healthy one;
        # they remain last-resort targets so nothing is dropped.
        degraded_ids = {p.path_id for p in enabled if p.degraded}
        priority_order = [pid for pid in ordered if pid not in degraded_ids] + [
            pid for pid in ordered if pid in degraded_ids
        ]
        remaining: Dict[int, int] = {
            p.path_id: max(p.max_packets, 1) for p in enabled
        }
        # Priority packets get extra headroom on the fast path: a
        # keyframe is a multi-round burst by nature, and spilling its
        # packets onto the slow path mid-recovery is how keyframes die
        # (§3.1's frame-level control exists to prevent exactly that).
        priority_remaining: Dict[int, int] = {
            p.path_id: 3 * max(p.max_packets, 1) for p in enabled
        }

        assignments: Assignment = []

        # Priority packets: fast path first, spill in cpt order.  A
        # priority packet is never dropped — if every path is at its
        # P_max it still rides the fast path (losing a keyframe or RTX
        # costs far more than one packet of queueing).
        for packet in priority_packets:
            target = self._first_with_room(priority_order, priority_remaining)
            if target is None:
                target = priority_order[0]
            else:
                priority_remaining[target] -= 1
                if remaining.get(target, 0) > 0:
                    remaining[target] -= 1
            assignments.append((packet, target))

        # Media packets: the path manager already computed each path's
        # Eq. 1 share adjusted by Eq. 2 feedback (``budget_packets``,
        # with fractional carry), so allocate straight from the
        # budgets, fastest path first; spillover goes to the fastest
        # path with room so nothing is dropped at the scheduler.
        if media_packets:
            index = 0
            rank = {path_id: pos for pos, path_id in enumerate(ordered)}
            by_speed = sorted(enabled, key=lambda p: rank[p.path_id])
            for path in by_speed:
                allowed = min(max(path.budget_packets, 0), remaining[path.path_id])
                for _ in range(allowed):
                    if index >= len(media_packets):
                        break
                    assignments.append((media_packets[index], path.path_id))
                    remaining[path.path_id] -= 1
                    index += 1
            while index < len(media_packets):
                target = self._first_with_room(ordered, remaining)
                if target is None:
                    # Every path is at P_max: shed the excess at the
                    # sender rather than build standing queues (the
                    # WebRTC pacer drops frames the same way when its
                    # queue budget is exhausted).
                    assignments.append((media_packets[index], DROP_PATH))
                else:
                    remaining[target] -= 1
                    assignments.append((media_packets[index], target))
                index += 1

        # FEC handed to the scheduler stays on its generation path.
        for packet in fec_packets:
            target = packet.path_id if packet.path_id >= 0 else ordered[0]
            assignments.append((packet, target))
        return assignments

    @staticmethod
    def _paths_by_completion_time(
        paths: Sequence[PathSnapshot], num_packets: int, packet_size: int
    ) -> List[int]:
        """Algorithm 1, generalized to a full fast-to-slow ordering."""
        ranked = sorted(
            paths, key=lambda p: p.completion_time(num_packets, packet_size)
        )
        return [p.path_id for p in ranked]

    @staticmethod
    def _first_with_room(
        ordered: List[int], remaining: Dict[int, int]
    ) -> int | None:
        for path_id in ordered:
            if remaining.get(path_id, 0) > 0:
                return path_id
        return None
