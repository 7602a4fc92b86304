"""Tests for RTP packets and RTCP messages."""

import pytest

from repro.rtp import (
    FRAME_TYPE_DELTA,
    FRAME_TYPE_KEY,
    Nack,
    PacketType,
    QoeFeedback,
    RtpPacket,
    SdesFrameRate,
    TransportFeedback,
    priority_of,
)
from repro.rtp.packets import RTP_HEADER_BYTES


def make_packet(**overrides):
    defaults = dict(
        ssrc=1,
        seq=10,
        timestamp=90_000,
        frame_id=3,
        frame_type=FRAME_TYPE_DELTA,
        packet_type=PacketType.MEDIA,
        payload_size=1200,
    )
    defaults.update(overrides)
    return RtpPacket(**defaults)


class TestPriorities:
    def test_table2_ordering(self):
        assert priority_of(PacketType.RETRANSMISSION) == 1
        assert priority_of(PacketType.KEYFRAME) == 2
        assert priority_of(PacketType.SPS) == 3
        assert priority_of(PacketType.PPS) == 4
        assert priority_of(PacketType.FEC) == 5
        assert priority_of(PacketType.MEDIA) is None

    def test_is_priority(self):
        assert not make_packet().is_priority
        assert make_packet(packet_type=PacketType.SPS).is_priority


class TestRtpPacket:
    def test_size_includes_headers(self):
        packet = make_packet(payload_size=1000)
        assert packet.size_bytes == 1000 + RTP_HEADER_BYTES

    def test_fec_is_not_media(self):
        assert not make_packet(packet_type=PacketType.FEC).is_media
        assert make_packet().is_media

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            make_packet(payload_size=-1)

    def test_rejects_bad_frame_type(self):
        with pytest.raises(ValueError):
            make_packet(frame_type="bidirectional")

    def test_retransmission_clone(self):
        original = make_packet(seq=42, frame_type=FRAME_TYPE_KEY,
                               packet_type=PacketType.KEYFRAME, gop_id=7)
        rtx = original.clone_for_retransmission(new_seq=9000, now=1.5)
        assert rtx.packet_type is PacketType.RETRANSMISSION
        assert rtx.original_seq == 42
        assert rtx.seq == 9000
        assert rtx.frame_id == original.frame_id
        assert rtx.gop_id == 7
        assert rtx.payload_size == original.payload_size
        assert rtx.priority == 1


class TestRtcpMessages:
    def test_sizes_grow_with_content(self):
        small = TransportFeedback(ssrc=0, path_id=0, packets=[(1, 0.1)])
        big = TransportFeedback(ssrc=0, path_id=0, packets=[(i, 0.1) for i in range(10)])
        assert big.size_bytes > small.size_bytes

    def test_nack_size(self):
        nack = Nack(ssrc=1, path_id=0, seqs=[1, 2, 3])
        assert nack.size_bytes == 12 + 12

    def test_qoe_feedback_fields(self):
        feedback = QoeFeedback(ssrc=1, path_id=2, alpha=-4, fcd=0.05)
        assert feedback.alpha == -4
        assert feedback.path_id == 2

    def test_sdes_default_rate(self):
        assert SdesFrameRate(ssrc=1, path_id=-1).frame_rate == 30.0

