"""Fuzz the wire parsers: arbitrary bytes must raise, never crash.

A parser that throws ``struct.error`` / ``IndexError`` on hostile
input is a denial-of-service bug in a network-facing system; every
unpack function must either return a valid message or raise
``ValueError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtp import rtcp_wire
from repro.rtp.serialization import unpack_rtcp_report, unpack_rtp_header


@st.composite
def mutated_packet(draw):
    """A valid packet with a few random byte flips."""
    from repro.rtp.rtcp import Nack, QoeFeedback, TransportFeedback

    message = draw(
        st.sampled_from(
            [
                Nack(ssrc=1, path_id=0, seqs=[5, 6, 9]),
                QoeFeedback(ssrc=1, path_id=1, alpha=-3, fcd=0.02),
                TransportFeedback(ssrc=1, path_id=0, packets=[(5, 0.5), (6, 0.6)]),
            ]
        )
    )
    data = bytearray(rtcp_wire.pack_message(message))
    flips = draw(st.lists(st.integers(0, len(data) - 1), max_size=4))
    for index in flips:
        data[index] ^= draw(st.integers(1, 255))
    truncate = draw(st.integers(0, len(data)))
    return bytes(data[:truncate])


class TestParserRobustness:
    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_rtp_header_never_crashes(self, data):
        try:
            unpack_rtp_header(data)
        except ValueError:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_rtcp_report_never_crashes(self, data):
        try:
            unpack_rtcp_report(data)
        except ValueError:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_rtcp_message_never_crashes(self, data):
        try:
            rtcp_wire.unpack_message(data)
        except ValueError:
            pass

    @given(st.binary(max_size=400))
    @settings(max_examples=200)
    def test_compound_never_crashes(self, data):
        try:
            rtcp_wire.unpack_compound(data)
        except ValueError:
            pass

    @given(mutated_packet())
    @settings(max_examples=200)
    def test_mutated_valid_packets_never_crash(self, data):
        try:
            rtcp_wire.unpack_message(data)
        except ValueError:
            pass
