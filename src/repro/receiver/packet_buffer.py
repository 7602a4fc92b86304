"""Bounded packet buffer assembling RTP packets into frames.

Faithful to the WebRTC semantics the paper leans on (§2.1/§3.2): the
buffer has a hard packet capacity; when full it evicts the packets of
the *oldest incomplete frame* to make room, which is exactly the
mechanism by which multipath asymmetry turns late packets into dropped
frames.  A frame is complete when every sequence number between its
first and last packet has arrived (retransmissions count under their
original sequence number, FEC recoveries are injected by the FEC
tracker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.rtp.packets import (
    PACKET_PPS,
    PACKET_RETRANSMISSION,
    PACKET_SPS,
    PacketType,
    RtpPacket,
)
from repro.rtp.sequence import seq_diff
from repro.video.decoder import AssembledFrame


@dataclass(slots=True)
class PacketBufferConfig:
    """Capacity and accounting knobs for the packet buffer."""

    # WebRTC's PacketBuffer grows to 2048 packets before evicting.
    capacity_packets: int = 2048

    def __post_init__(self) -> None:
        if self.capacity_packets < 8:
            raise ValueError("packet buffer must hold at least 8 packets")


@dataclass(slots=True)
class PacketArrival:
    """Arrival record kept per packet for QoE feedback computation."""

    seq: int
    path_id: int
    arrival_time: float
    packet_type: PacketType
    fec_recovered: bool = False


@dataclass(slots=True)
class _FrameAssembly:
    """Mutable per-frame assembly state."""

    frame_id: int
    ssrc: int
    frame_type: str = "delta"
    gop_id: int = -1
    capture_time: float = 0.0
    first_seq: Optional[int] = None
    last_seq: Optional[int] = None
    seqs: Set[int] = field(default_factory=set)
    arrivals: List[PacketArrival] = field(default_factory=list)
    first_arrival: float = 0.0
    has_pps: bool = False
    has_sps: bool = False
    media_bytes: int = 0
    any_fec_recovered: bool = False
    evicted: bool = False

    @property
    def expected_count(self) -> Optional[int]:
        if self.first_seq is None or self.last_seq is None:
            return None
        return seq_diff(self.last_seq, self.first_seq) + 1

    @property
    def complete(self) -> bool:
        expected = self.expected_count
        return expected is not None and len(self.seqs) >= expected


@dataclass(slots=True)
class PacketBufferStats:
    duplicates: int = 0
    evicted_frames: int = 0


class PacketBuffer:
    """Per-stream frame assembly with bounded capacity."""

    __slots__ = ("ssrc", "config", "stats", "_frames", "_packet_count",
                 "_dead_frames")

    def __init__(self, ssrc: int, config: PacketBufferConfig | None = None) -> None:
        self.ssrc = ssrc
        self.config = config or PacketBufferConfig()
        self.stats = PacketBufferStats()
        self._frames: Dict[int, _FrameAssembly] = {}
        self._packet_count = 0
        # Frames that were evicted or already delivered; packets for
        # them are dropped on arrival.
        self._dead_frames: Set[int] = set()

    def insert(
        self, packet: RtpPacket, now: float, fec_recovered: bool = False
    ) -> Optional[Tuple[AssembledFrame, List[PacketArrival]]]:
        """Add a packet; return the completed frame if this finished one."""
        frame_id = packet.frame_id
        if frame_id in self._dead_frames:
            return None
        packet_type = packet.packet_type
        seq = packet.seq
        if (
            packet_type is PACKET_RETRANSMISSION
            and packet.original_seq is not None
        ):
            seq = packet.original_seq
        assembly = self._frames.get(frame_id)
        if assembly is None:
            assembly = _FrameAssembly(frame_id=frame_id, ssrc=packet.ssrc)
            assembly.first_arrival = now
            self._frames[frame_id] = assembly
        seqs = assembly.seqs
        if seq in seqs:
            self.stats.duplicates += 1
            return None
        if self._packet_count >= self.config.capacity_packets:
            self._make_room(protect_frame=frame_id)
            if frame_id in self._dead_frames:
                # Making room can only kill other frames, but guard anyway.
                return None

        seqs.add(seq)
        # Positional: keyword arguments to a class build a dict.
        assembly.arrivals.append(
            PacketArrival(seq, packet.path_id, now, packet_type, fec_recovered)
        )
        assembly.frame_type = packet.frame_type
        assembly.gop_id = packet.gop_id
        assembly.capture_time = packet.capture_time
        if fec_recovered:
            assembly.any_fec_recovered = True
        if packet.first_in_frame:
            assembly.first_seq = seq
        if packet.last_in_frame:
            assembly.last_seq = seq
        if packet_type is PACKET_PPS:
            assembly.has_pps = True
        elif packet_type is PACKET_SPS:
            assembly.has_sps = True
        else:
            assembly.media_bytes += packet.payload_size
        self._packet_count += 1

        # Inline of assembly.complete (this is the per-packet hot path).
        first_seq = assembly.first_seq
        last_seq = assembly.last_seq
        if (
            first_seq is not None
            and last_seq is not None
            and len(seqs) >= seq_diff(last_seq, first_seq) + 1
        ):
            return self._finish(assembly, now)
        return None

    def _finish(
        self, assembly: _FrameAssembly, now: float
    ) -> Tuple[AssembledFrame, List[PacketArrival]]:
        self._packet_count -= len(assembly.seqs)
        del self._frames[assembly.frame_id]
        self._dead_frames.add(assembly.frame_id)
        self._prune_dead()
        frame = AssembledFrame(
            frame_id=assembly.frame_id,
            ssrc=assembly.ssrc,
            frame_type=assembly.frame_type,
            gop_id=assembly.gop_id,
            size_bytes=assembly.media_bytes,
            capture_time=assembly.capture_time,
            has_pps=assembly.has_pps,
            has_sps=assembly.has_sps,
            first_arrival=assembly.first_arrival,
            completed_at=now,
            fec_recovered=assembly.any_fec_recovered,
        )
        return frame, assembly.arrivals

    def _make_room(self, protect_frame: int) -> None:
        """Evict the oldest incomplete frame(s) when at capacity."""
        while self._packet_count >= self.config.capacity_packets:
            oldest = min(
                (
                    fid
                    for fid in self._frames
                    if fid != protect_frame and self._frames[fid].seqs
                ),
                default=None,
            )
            if oldest is None:
                # Only the protected frame holds packets; evict it too
                # rather than grow without bound.
                oldest = min(self._frames)
            self._evict(oldest)
            if oldest == protect_frame:
                break

    def _evict(self, frame_id: int) -> None:
        assembly = self._frames.pop(frame_id)
        self._packet_count -= len(assembly.seqs)
        self._dead_frames.add(frame_id)
        self.stats.evicted_frames += 1

    def _prune_dead(self) -> None:
        """Bound the dead-frame set; old ids can never reappear."""
        if len(self._dead_frames) > 4096:
            horizon = max(self._dead_frames) - 2048
            self._dead_frames = {f for f in self._dead_frames if f >= horizon}

    def drop_frame(self, frame_id: int) -> bool:
        """Drop a pending frame (frame-buffer purge of dependents, §2.1)."""
        if frame_id in self._frames:
            self._evict(frame_id)
            return True
        self._dead_frames.add(frame_id)
        return False

    def frame_pending(self, frame_id: int) -> bool:
        """Whether packets for an incomplete ``frame_id`` are buffered."""
        return frame_id in self._frames

    def is_dead(self, frame_id: int) -> bool:
        return frame_id in self._dead_frames

    @property
    def packet_count(self) -> int:
        return self._packet_count
