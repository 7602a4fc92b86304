"""RTP/RTCP packet model with the Converge multipath extensions.

The paper extends RTP with a path id, a per-path (flow-level) sequence
number and a per-path transport sequence number (Appendix B, Fig. 18)
and RTCP with a path id and per-path extended highest sequence numbers
(Appendix C, Fig. 19).  This package provides:

- :class:`RtpPacket` and the packet-type/priority taxonomy of Table 2,
- the RTCP message set the system needs (receiver reports,
  transport-wide feedback, NACK, keyframe requests, SDES frame rate,
  and the Converge QoE feedback message),
- 16-bit sequence-number arithmetic utilities.
"""

from repro.rtp.packets import (
    FRAME_TYPE_DELTA,
    FRAME_TYPE_KEY,
    PacketType,
    RtpPacket,
    priority_of,
)
from repro.rtp.rtcp import (
    KeyframeRequest,
    Nack,
    QoeFeedback,
    ReceiverReport,
    RtcpMessage,
    SdesFrameRate,
    TransportFeedback,
)
from repro.rtp.sequence import SequenceUnwrapper, seq_diff, seq_less_than

__all__ = [
    "FRAME_TYPE_DELTA",
    "FRAME_TYPE_KEY",
    "KeyframeRequest",
    "Nack",
    "PacketType",
    "QoeFeedback",
    "ReceiverReport",
    "RtcpMessage",
    "RtpPacket",
    "SdesFrameRate",
    "SequenceUnwrapper",
    "TransportFeedback",
    "priority_of",
    "seq_diff",
    "seq_less_than",
]
