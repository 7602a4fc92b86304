"""RTP packet model and the Table 2 priority taxonomy."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Sequence

FRAME_TYPE_KEY = "key"
FRAME_TYPE_DELTA = "delta"

# RTP fixed header (12 bytes) + the Converge multipath extension header
# of Fig. 18 (profile id/length word + path id + mp-seq + mp-transport-seq
# one-byte extensions, padded) — kept as named constants so size
# accounting in the emulator matches that wire layout.
RTP_BASE_HEADER_BYTES = 12
MULTIPATH_EXTENSION_BYTES = 12
RTP_HEADER_BYTES = RTP_BASE_HEADER_BYTES + MULTIPATH_EXTENSION_BYTES

DEFAULT_MTU_PAYLOAD = 1200


class PacketType(Enum):
    """What an RTP packet carries, per the paper's Table 2 taxonomy."""

    MEDIA = "media"  # delta-frame media payload (no priority level)
    KEYFRAME = "keyframe"  # media payload belonging to a keyframe
    SPS = "sps"  # sequence parameter set (one per group of frames)
    PPS = "pps"  # picture parameter set (one per frame)
    FEC = "fec"  # XOR forward-error-correction packet
    RETRANSMISSION = "rtx"  # NACK-triggered retransmission


# The members as module constants.  Per-packet code names members
# through these: on CPython <= 3.11 ``PacketType.FEC`` goes through
# ``EnumType.__getattr__`` (106 ns against 8 ns for a module constant
# on 3.11.7).  Compare with ``is``; test against several members with
# ``in`` on a tuple (identity first), never on a set or dict key,
# because ``Enum.__hash__`` is Python code.  DESIGN.md §6 has the
# per-version costs; ``tests/test_hot_path.py`` holds the per-packet
# functions to this.
PACKET_MEDIA = PacketType.MEDIA
PACKET_KEYFRAME = PacketType.KEYFRAME
PACKET_SPS = PacketType.SPS
PACKET_PPS = PacketType.PPS
PACKET_FEC = PacketType.FEC
PACKET_RETRANSMISSION = PacketType.RETRANSMISSION

# Table 2: priority levels, 1 = highest.  Plain delta-frame media
# packets carry no priority level (``None``) and are load-balanced by
# Eq. 1 instead of pinned to the fast path.  Keyed by the member's
# value, whose str hash is cached.
_PRIORITY: Dict[str, Optional[int]] = {
    PACKET_RETRANSMISSION.value: 1,
    PACKET_KEYFRAME.value: 2,
    PACKET_SPS.value: 3,
    PACKET_PPS.value: 4,
    PACKET_FEC.value: 5,
    PACKET_MEDIA.value: None,
}


def priority_of(packet_type: PacketType) -> Optional[int]:
    """Return the Table 2 priority level (1 highest) or ``None``."""
    return _PRIORITY[packet_type._value_]


@dataclass(slots=True)
class RtpPacket:
    """One RTP packet, carrying media, parameter sets, or FEC.

    ``seq`` is the stream-global 16-bit sequence number; ``mp_seq`` and
    ``mp_transport_seq`` are the per-path numbers from the Converge
    header extension and are assigned by the scheduler when the packet
    is bound to a path.

    The per-packet call sites (packetizer, FEC) pass the first nine
    fields positionally: calling a class with keyword arguments builds
    a dict, ~45 ns a keyword on CPython 3.11.
    """

    ssrc: int
    seq: int
    timestamp: int
    frame_id: int
    frame_type: str
    packet_type: PacketType
    payload_size: int
    capture_time: float = 0.0
    # Group-of-pictures id: ties delta frames to their SPS.
    gop_id: int = -1
    first_in_frame: bool = False
    last_in_frame: bool = False
    # Multipath extension fields (Fig. 18); -1 until bound to a path.
    path_id: int = -1
    mp_seq: int = -1
    mp_transport_seq: int = -1
    # FEC packets record which media sequence numbers they protect;
    # every other packet shares the one empty tuple.
    protected_seqs: Sequence[int] = ()
    # Simulation-side stand-in for the XOR payload: references to the
    # protected packets so a recovery can reconstruct the original
    # packet exactly, as the byte-level codec would.
    protected_packets: Sequence["RtpPacket"] = ()
    # For retransmissions: the seq of the original packet.
    original_seq: Optional[int] = None
    send_time: float = -1.0
    # On-the-wire size including RTP + multipath extension headers.
    # Precomputed (payload_size never changes after construction) because
    # the emulator reads it several times per packet on the hot path.
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError("payload size must be non-negative")
        if self.frame_type not in (FRAME_TYPE_KEY, FRAME_TYPE_DELTA):
            raise ValueError(f"unknown frame type: {self.frame_type}")
        self.size_bytes = RTP_HEADER_BYTES + self.payload_size

    @property
    def priority(self) -> Optional[int]:
        """Table 2 priority level, 1 = highest, ``None`` = plain media."""
        return priority_of(self.packet_type)

    @property
    def is_priority(self) -> bool:
        return self.priority is not None

    @property
    def is_media(self) -> bool:
        """True for packets the decoder needs (everything but FEC)."""
        return self.packet_type is not PACKET_FEC

    def clone_for_retransmission(self, new_seq: int, now: float) -> "RtpPacket":
        """Build the RTX copy of this packet (Table 2 priority 1)."""
        return RtpPacket(
            ssrc=self.ssrc,
            seq=new_seq,
            timestamp=self.timestamp,
            frame_id=self.frame_id,
            frame_type=self.frame_type,
            packet_type=PACKET_RETRANSMISSION,
            payload_size=self.payload_size,
            first_in_frame=self.first_in_frame,
            last_in_frame=self.last_in_frame,
            capture_time=self.capture_time,
            gop_id=self.gop_id,
            original_seq=self.seq,
            send_time=now,
        )
