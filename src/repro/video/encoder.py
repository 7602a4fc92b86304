"""Rate-controlled video encoder model.

Produces :class:`VideoFrame` objects at the camera frame rate.  The
target bitrate is set externally by congestion control; the encoder
translates it into per-frame byte budgets with a keyframe multiplier,
lognormal-ish size variation, and GOP structure (a keyframe every
``gop_length`` frames or on an explicit keyframe request from the
receiver — the PLI path that the paper's "keyframe request" counts
measure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.rtp.packets import FRAME_TYPE_DELTA, FRAME_TYPE_KEY
from repro.simulation.random import RandomStreams
from repro.video.frames import VideoFrame
from repro.video.quality import RateDistortionModel

# A keyframe costs this many base (delta-sized) frames.
KEYFRAME_SIZE_MULTIPLIER = 4.0


@dataclass
class EncoderConfig:
    """Static encoder parameters."""

    ssrc: int = 1
    frame_rate: float = 30.0
    gop_length: int = 300
    min_bitrate: float = 150_000.0
    max_bitrate: float = 10_000_000.0
    size_jitter: float = 0.15
    rd_model: RateDistortionModel = field(default_factory=RateDistortionModel)

    def __post_init__(self) -> None:
        if self.frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        if self.gop_length < 1:
            raise ValueError("gop length must be at least 1")
        if not 0 <= self.size_jitter < 1:
            raise ValueError("size jitter must be in [0, 1)")
        if self.min_bitrate <= 0 or self.max_bitrate < self.min_bitrate:
            raise ValueError("invalid bitrate bounds")


class Encoder:
    """Converts camera ticks into encoded frames at the target bitrate."""

    def __init__(self, config: EncoderConfig, streams: RandomStreams) -> None:
        self.config = config
        self._rng = streams.stream(f"encoder-{config.ssrc}")
        self._target_bitrate = config.min_bitrate
        self._frame_counter = 0
        self._frames_since_key = 0
        self._gop_id = -1
        self._keyframe_requested = True  # first frame is always a key
        self._last_frame_id: Optional[int] = None
        # Rolling debt lets the rate control amortize oversized
        # keyframes across the following delta frames.
        self._byte_debt = 0.0

    @property
    def target_bitrate(self) -> float:
        return self._target_bitrate

    def set_target_bitrate(self, bitrate: float) -> None:
        """Clamp and apply the rate chosen by congestion control."""
        self._target_bitrate = min(
            max(bitrate, self.config.min_bitrate), self.config.max_bitrate
        )

    def request_keyframe(self) -> None:
        """Force the next encoded frame to be a keyframe (PLI response)."""
        self._keyframe_requested = True

    def encode_frame(self, capture_time: float) -> VideoFrame:
        """Encode the frame captured at ``capture_time``."""
        config = self.config
        is_key = (
            self._keyframe_requested
            or self._frames_since_key >= config.gop_length
        )
        base_bytes = self._target_bitrate / config.frame_rate / 8
        if is_key:
            size = base_bytes * KEYFRAME_SIZE_MULTIPLIER
            self._gop_id += 1
            self._frames_since_key = 0
            self._keyframe_requested = False
            depends_on = None
            frame_type = FRAME_TYPE_KEY
            # The extra keyframe bytes are paid back by shrinking the
            # following delta frames slightly.
            self._byte_debt += size - base_bytes
        else:
            repayment = min(self._byte_debt, base_bytes * 0.2)
            self._byte_debt -= repayment
            size = base_bytes - repayment
            self._frames_since_key += 1
            depends_on = self._last_frame_id
            frame_type = FRAME_TYPE_DELTA
        jitter = 1.0 + self._rng.uniform(-config.size_jitter, config.size_jitter)
        size_bytes = max(int(size * jitter), 200)
        qp = config.rd_model.qp_for_bitrate(self._target_bitrate)
        frame = VideoFrame(
            frame_id=self._frame_counter,
            ssrc=config.ssrc,
            frame_type=frame_type,
            size_bytes=size_bytes,
            capture_time=capture_time,
            qp=qp,
            gop_id=self._gop_id,
            depends_on=depends_on,
        )
        self._last_frame_id = self._frame_counter
        self._frame_counter += 1
        return frame
