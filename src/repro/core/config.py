"""Call configuration shared by sender, receiver and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.cc.gcc import GccConfig
from repro.receiver.session import ReceiverConfig
from repro.video.encoder import EncoderConfig


class SystemKind(Enum):
    """The systems compared in the paper's evaluation."""

    CONVERGE = "converge"
    WEBRTC = "webrtc"  # single path
    WEBRTC_CM = "webrtc-cm"  # single path with connection migration
    SRTT = "srtt"  # minRTT multipath
    MTPUT = "m-tput"  # Musher throughput multipath
    MRTP = "m-rtp"  # MPRTP multipath


class FecMode(Enum):
    """Which FEC controller protects the media."""

    CONVERGE = "converge"  # path-specific, beta-adaptive (§4.3)
    WEBRTC_TABLE = "webrtc-table"  # static table, application-level
    NONE = "none"


# The members the sender names per frame, as module constants: see
# ``repro.rtp.packets`` for why.
FEC_MODE_CONVERGE = FecMode.CONVERGE
FEC_MODE_WEBRTC_TABLE = FecMode.WEBRTC_TABLE


# Feedback-silence watchdog: sender-side lossy-feedback hardening, read
# by the packet core's path manager and by both flow loops.  The control
# loop rides on RTCP; when a path's feedback goes silent the sender must
# degrade gracefully instead of trusting (or wedging on) stale state.
#
# Silence before the path is degraded (rate frozen at its last-known-good
# value and decaying, priority packets diverted).  Transport feedback
# normally arrives every 50 ms, so this tolerates several lost reports.
WATCHDOG_DEGRADE_TIMEOUT = 0.4
# Silence before the path is disabled entirely.
WATCHDOG_SILENCE_TIMEOUT = 1.5
# Multiplicative decay of the frozen rate while silence persists:
# rate *= factor per interval.
WATCHDOG_RATE_DECAY_FACTOR = 0.6
WATCHDOG_RATE_DECAY_INTERVAL = 0.5
# Probe cadence for disabled paths: exponential backoff with cap and
# jitter, so a dead path is not hammered forever at full rate.
WATCHDOG_PROBE_INTERVAL_INITIAL = 0.2
WATCHDOG_PROBE_INTERVAL_MAX = 1.0
WATCHDOG_PROBE_BACKOFF_FACTOR = 1.5
WATCHDOG_PROBE_JITTER_FRACTION = 0.25
# Last-resort blind re-enable: consecutive blind re-enables back off
# exponentially.
WATCHDOG_REENABLE_BACKOFF_INITIAL = 10.0
WATCHDOG_REENABLE_BACKOFF_MAX = 60.0


@dataclass
class CallConfig:
    """Everything needed to run one simulated conference call.

    A stream's bitrate cap is ``encoder_template.max_bitrate``.
    """

    system: SystemKind = SystemKind.CONVERGE
    fec_mode: FecMode = FecMode.CONVERGE
    duration: float = 60.0
    num_streams: int = 1
    frame_rate: float = 30.0
    seed: int = 1
    # Which path single-path systems pin to.
    single_path_id: int = 0
    # Ablation switches (Fig. 11 / Table 4 run Converge without the
    # QoE feedback loop).  The receiver session takes both from here.
    qoe_feedback_enabled: bool = True
    nack_enabled: bool = True
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    encoder_template: EncoderConfig = field(default_factory=EncoderConfig)
    gcc: GccConfig = field(default_factory=GccConfig)
    # Fraction of the (FEC-discounted) transport budget the encoder
    # may use.  Converge runs with headroom: QoE-driven means trading
    # a little raw rate for far fewer late frames under fades.
    encoder_utilization: float = 0.97
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.num_streams < 1:
            raise ValueError("need at least one stream")
        if self.label is None:
            self.label = self.system.value

    @property
    def is_multipath(self) -> bool:
        return self.system in (
            SystemKind.CONVERGE,
            SystemKind.SRTT,
            SystemKind.MTPUT,
            SystemKind.MRTP,
        )
