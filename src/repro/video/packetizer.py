"""Packetization of encoded frames into RTP packets.

Per §2.1/§3.1 of the paper, a keyframe carries an SPS packet (decoding
information for its group of frames) and a PPS packet (decoding
information for the frame itself); every delta frame carries a PPS
packet.  Losing either makes the frame — or the whole group —
non-decodable even if all media payload arrives.
"""

from __future__ import annotations

from typing import List

from repro.rtp.packets import (
    DEFAULT_MTU_PAYLOAD,
    FRAME_TYPE_KEY,
    PACKET_KEYFRAME,
    PACKET_MEDIA,
    PACKET_PPS,
    PACKET_SPS,
    PacketType,
    RtpPacket,
)
from repro.rtp.sequence import SEQ_MOD
from repro.video.frames import VideoFrame

PARAMETER_SET_BYTES = 40


class Packetizer:
    """Splits frames into RTP packets with a per-stream sequence space."""

    def __init__(
        self,
        ssrc: int,
        mtu_payload: int = DEFAULT_MTU_PAYLOAD,
        clock_rate: int = 90_000,
    ) -> None:
        if mtu_payload <= PARAMETER_SET_BYTES:
            raise ValueError("mtu must exceed a parameter-set payload")
        self.ssrc = ssrc
        self.mtu_payload = mtu_payload
        self.clock_rate = clock_rate
        self._next_seq = 0

    def packetize(self, frame: VideoFrame) -> List[RtpPacket]:
        """Return the RTP packets for ``frame`` in transmission order.

        Layout: [SPS (keyframes only), PPS, media...]; the final media
        packet carries the ``last_in_frame`` marker.
        """
        ssrc = self.ssrc
        capture_time = frame.capture_time
        timestamp = int(capture_time * self.clock_rate) & 0xFFFFFFFF
        frame_id = frame.frame_id
        frame_type = frame.frame_type
        gop_id = frame.gop_id
        packets: List[RtpPacket] = []

        def make(packet_type: PacketType, payload: int) -> RtpPacket:
            seq = self._next_seq
            self._next_seq = (seq + 1) % SEQ_MOD
            return RtpPacket(
                ssrc, seq, timestamp, frame_id, frame_type, packet_type,
                payload, capture_time, gop_id,
            )

        if frame_type == FRAME_TYPE_KEY:
            packets.append(make(PACKET_SPS, PARAMETER_SET_BYTES))
        packets.append(make(PACKET_PPS, PARAMETER_SET_BYTES))

        media_type = (
            PACKET_KEYFRAME
            if frame_type == FRAME_TYPE_KEY
            else PACKET_MEDIA
        )
        remaining = frame.size_bytes
        while remaining > 0:
            chunk = min(remaining, self.mtu_payload)
            packets.append(make(media_type, chunk))
            remaining -= chunk

        packets[0].first_in_frame = True
        packets[-1].last_in_frame = True
        return packets
