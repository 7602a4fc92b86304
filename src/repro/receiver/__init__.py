"""Receiver-side pipeline: buffers, recovery, and QoE feedback.

Mirrors the WebRTC receive path described in §2.1 of the paper: RTP
packets accumulate in a bounded *packet buffer* until a frame is
complete (possibly via FEC recovery), completed frames enter a bounded
*frame buffer* that feeds the decoder in dependency order, and the two
intermediate delays — Frame Construction Delay (FCD, "gathering
delay") and InterFrame Delay (IFD) — drive the Converge QoE feedback
of §4.2.  NACK generation and keyframe requests live here too.
"""

from repro.receiver.packet_buffer import PacketBuffer, PacketBufferConfig
from repro.receiver.frame_buffer import FrameBuffer, FrameBufferConfig
from repro.receiver.nack import NackGenerator, NackConfig
from repro.receiver.fec_tracker import FecTracker
from repro.receiver.feedback import QoeFeedbackGenerator, QoeFeedbackConfig
from repro.receiver.session import ReceiverConfig, ReceiverSession

__all__ = [
    "FecTracker",
    "FrameBuffer",
    "FrameBufferConfig",
    "NackConfig",
    "NackGenerator",
    "PacketBuffer",
    "PacketBufferConfig",
    "QoeFeedbackConfig",
    "QoeFeedbackGenerator",
    "ReceiverConfig",
    "ReceiverSession",
]
