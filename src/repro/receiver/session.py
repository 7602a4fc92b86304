"""The full receiver session: ingress, recovery, feedback, RTCP.

Wires together, per stream: packet buffer -> frame buffer -> decoder,
with NACK generation, FEC tracking/recovery and the Converge QoE
feedback generator; and per path: transport-wide feedback and
receiver-report generation for the sender's per-path GCC instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.metrics.collector import MetricsCollector, RenderedFrame
from repro.net.multipath import PathSet
from repro.receiver.fec_tracker import FecTracker
from repro.receiver.feedback import (
    FeedbackDecision,
    QoeFeedbackConfig,
    QoeFeedbackGenerator,
)
from repro.receiver.frame_buffer import FrameBuffer, FrameBufferConfig
from repro.receiver.nack import NackConfig, NackGenerator
from repro.receiver.packet_buffer import (
    PacketArrival,
    PacketBuffer,
    PacketBufferConfig,
)
from repro.rtp.packets import PACKET_FEC, PACKET_RETRANSMISSION, RtpPacket
from repro.rtp.rtcp import (
    KeyframeRequest,
    Nack,
    QoeFeedback,
    ReceiverReport,
    RtcpMessage,
    SdesFrameRate,
    TransportFeedback,
)
from repro.rtp.sequence import SequenceUnwrapper, unwrap_near
from repro.simulation.process import PeriodicProcess
from repro.simulation.simulator import Simulator
from repro.video.decoder import AssembledFrame, DecoderModel

# Per-path RTCP cadence: transport-wide feedback and receiver reports.
_TRANSPORT_FEEDBACK_INTERVAL = 0.05
_RECEIVER_REPORT_INTERVAL = 0.2
# Minimum spacing between keyframe requests per stream (PLI throttle).
KEYFRAME_REQUEST_MIN_INTERVAL = 1.0
# If nothing has rendered for this long while frames are stuck in the
# buffer, ask for a keyframe to re-anchor (WebRTC requests a keyframe
# when the decoder is starved rather than waiting out the full
# missing-frame timeout).
_DECODER_STALL_TIMEOUT = 0.5


@dataclass
class ReceiverConfig:
    """All receiver-side knobs.

    The two ablation switches (NACK, QoE feedback) are the call's:
    :class:`repro.core.config.CallConfig` holds them and the session
    takes them as arguments.
    """

    packet_buffer: PacketBufferConfig = field(default_factory=PacketBufferConfig)
    frame_buffer: FrameBufferConfig = field(default_factory=FrameBufferConfig)
    nack: NackConfig = field(default_factory=NackConfig)
    feedback: QoeFeedbackConfig = field(default_factory=QoeFeedbackConfig)
    # Playout deadline: conferencing is interactive, so a frame that
    # completes this long after capture is useless even if intact —
    # it is dropped and counts against QoE.  This is the real-time
    # budget that makes late packets equivalent to lost ones (§3.2).
    # 0.8 s matches the paper's own observations: their Fig. 14(c)
    # shows frames rendering at up to ~1 s on the naive multipath
    # variants, so the deadline must sit near there, not at the
    # 300-400 ms interactivity ideal.
    max_playout_latency: float = 0.8


@dataclass
class _PathReceiveState:
    """Per-path accounting between RTCP reports."""

    transport_entries: List[Tuple[int, float]] = field(default_factory=list)
    mp_unwrapper: SequenceUnwrapper = field(default_factory=SequenceUnwrapper)
    highest_mp_seq: int = -1
    received_count: int = 0
    prev_highest_mp_seq: int = -1
    prev_received_count: int = 0
    cumulative_lost: int = 0
    last_activity: float = -1.0


class _StreamState:
    """Per-stream receive pipeline."""

    def __init__(
        self,
        session: "ReceiverSession",
        ssrc: int,
        config: ReceiverConfig,
        nack_enabled: bool,
    ) -> None:
        self.ssrc = ssrc
        self.session = session
        self.packet_buffer = PacketBuffer(ssrc, config.packet_buffer)
        self.decoder = DecoderModel()
        self.frame_buffer = FrameBuffer(
            session.sim,
            self.decoder,
            config.frame_buffer,
            on_render=lambda frame, t: session._on_render(self, frame, t),
            on_keyframe_needed=lambda: session._request_keyframe(self),
            on_frame_declared_lost=lambda fid: session._on_frame_lost(self, fid),
            on_insert=lambda frame, t: None,
        )
        self.fec_tracker = FecTracker()
        self.seq_unwrapper = SequenceUnwrapper()
        self.nack: Optional[NackGenerator] = None
        if nack_enabled:
            self.nack = NackGenerator(
                session.sim,
                ssrc,
                send_nack=lambda seqs: session._send_nack(self, seqs),
                config=config.nack,
            )
        self.feedback = QoeFeedbackGenerator(
            config.feedback,
            on_feedback=lambda d: session._send_qoe_feedback(self, d),
        )
        self.last_keyframe_request: float = -1e9
        self.last_render_time: float = 0.0
        # Running unwrapped position of the media sequence space, the
        # reference for unwrapping seqs carried inside FEC packets.
        self.last_unwrapped_seq: int = 0
        # Recent packets by unwrapped seq, so FEC recovery can locate
        # the original packet object (stand-in for XOR payload bytes).
        self.recent_packets: Dict[int, RtpPacket] = {}


class ReceiverSession:
    """Receives packets from all paths for all streams of one call.

    ``nack_enabled`` and ``qoe_feedback_enabled`` are the call's
    ablation switches (:class:`repro.core.config.CallConfig`).
    """

    def __init__(
        self,
        sim: Simulator,
        paths: PathSet,
        ssrcs: Iterable[int],
        config: ReceiverConfig | None = None,
        metrics: MetricsCollector | None = None,
        on_rtcp: Optional[Callable[[RtcpMessage], None]] = None,
        nack_enabled: bool = True,
        qoe_feedback_enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.paths = paths
        self.config = config or ReceiverConfig()
        self.metrics = metrics or MetricsCollector()
        self._on_rtcp = on_rtcp
        self._qoe_feedback_enabled = qoe_feedback_enabled
        self._streams: Dict[int, _StreamState] = {
            ssrc: _StreamState(self, ssrc, self.config, nack_enabled)
            for ssrc in ssrcs
        }
        self._path_states: Dict[int, _PathReceiveState] = {
            pid: _PathReceiveState() for pid in paths.path_ids
        }
        for path in paths:
            path.on_deliver = self.on_packet
        self._tf_process = PeriodicProcess(
            sim,
            _TRANSPORT_FEEDBACK_INTERVAL,
            self._emit_transport_feedback,
            start_delay=_TRANSPORT_FEEDBACK_INTERVAL,
        )
        self._rr_process = PeriodicProcess(
            sim,
            _RECEIVER_REPORT_INTERVAL,
            self._emit_receiver_reports,
            start_delay=_RECEIVER_REPORT_INTERVAL,
        )
        self._keyframe_watch = PeriodicProcess(sim, 0.25, self._watch_keyframes)

    # -- ingress ---------------------------------------------------------

    def on_packet(self, packet: RtpPacket) -> None:
        """Entry point for every packet delivered by any path."""
        now = self.sim.now
        path_state = self._path_states.get(packet.path_id)
        if path_state is None and packet.path_id in self.paths:
            # First packet from a path born mid-call: receive state is
            # created lazily.  The membership check keeps late stragglers
            # from an already-removed path from resurrecting its state.
            path_state = _PathReceiveState()
            self._path_states[packet.path_id] = path_state
        if path_state is not None:
            path_state.transport_entries.append((packet.mp_transport_seq, now))
            path_state.last_activity = now
            mp_seq = packet.mp_seq
            if mp_seq >= 0:
                unwrapped_mp = path_state.mp_unwrapper.unwrap(mp_seq)
                if unwrapped_mp > path_state.highest_mp_seq:
                    path_state.highest_mp_seq = unwrapped_mp
                path_state.received_count += 1
        stream = self._streams.get(packet.ssrc)
        if stream is None:
            return
        if packet.packet_type is PACKET_FEC:
            self._on_fec_packet(stream, packet, now)
            return
        self._on_media_packet(stream, packet, now)

    def _on_media_packet(
        self, stream: _StreamState, packet: RtpPacket, now: float
    ) -> None:
        is_rtx = packet.packet_type is PACKET_RETRANSMISSION
        original_seq = packet.seq
        if is_rtx and packet.original_seq is not None:
            original_seq = packet.original_seq
        unwrapped = stream.seq_unwrapper.unwrap(original_seq)
        stream.last_unwrapped_seq = unwrapped
        stream.recent_packets[unwrapped] = packet
        if len(stream.recent_packets) > 8192:
            self._prune_recent(stream)
        self.metrics.record_media_received(now, packet.payload_size)
        if stream.nack is not None:
            stream.nack.on_packet(unwrapped, repaired=is_rtx)
        recovered = stream.fec_tracker.on_media_packet(unwrapped)
        completed = stream.packet_buffer.insert(packet, now, False)
        if completed is not None:
            self._on_frame_complete(stream, completed[0], completed[1], now)
        if recovered is not None:
            self._inject_recovered(stream, recovered, now)

    def _on_fec_packet(
        self, stream: _StreamState, packet: RtpPacket, now: float
    ) -> None:
        # Protected seqs sit near the stream's current position; unwrap
        # them against it without perturbing the unwrapper's state.
        reference = stream.last_unwrapped_seq
        protected_unwrapped = [
            unwrap_near(seq, reference) for seq in packet.protected_seqs
        ]
        # Remember originals so a recovery can materialize the packet.
        for seq_unwrapped, original in zip(
            protected_unwrapped, packet.protected_packets
        ):
            stream.recent_packets.setdefault(seq_unwrapped, original)
        recovered = stream.fec_tracker.on_fec_packet(
            packet.seq, protected_unwrapped
        )
        if recovered is not None:
            self._inject_recovered(stream, recovered, now)

    def _inject_recovered(
        self, stream: _StreamState, unwrapped_seq: int, now: float
    ) -> None:
        original = stream.recent_packets.get(unwrapped_seq)
        if original is None:
            return
        if stream.nack is not None:
            stream.nack.on_packet(unwrapped_seq, repaired=True)
        completed = stream.packet_buffer.insert(original, now, True)
        if completed is not None:
            self._on_frame_complete(stream, completed[0], completed[1], now)

    # -- frame pipeline ------------------------------------------------------

    def _on_frame_complete(
        self,
        stream: _StreamState,
        frame: AssembledFrame,
        arrivals: List[PacketArrival],
        now: float,
    ) -> None:
        fcd = frame.completed_at - frame.first_arrival
        self.metrics.record_fcd(now, fcd)
        if (
            now - frame.capture_time > self.config.max_playout_latency
            and not frame.is_keyframe
        ):
            # Too late for interactive playout: the frame is dropped
            # even though it assembled (keyframes are exempt — they
            # re-anchor the chain and end freezes, late or not).
            self.metrics.record_frame_drop(
                now, stream.ssrc, frame.frame_id, "too-late"
            )
            stream.frame_buffer.declare_unrecoverable(frame.frame_id)
            return
        stream.frame_buffer.insert(frame)
        ifd = stream.frame_buffer.last_ifd
        if ifd is not None:
            self.metrics.record_ifd(now, ifd)
        if self._qoe_feedback_enabled:
            stream.feedback.on_frame_inserted(frame, arrivals, ifd, now)

    def _on_render(
        self, stream: _StreamState, frame: AssembledFrame, render_time: float
    ) -> None:
        stream.last_render_time = render_time
        # Positional, in RenderedFrame's field order; qp is joined from
        # the encoder record by record_render.
        self.metrics.record_render(
            RenderedFrame(
                frame.ssrc,
                frame.frame_id,
                frame.capture_time,
                render_time,
                frame.size_bytes,
                frame.is_keyframe,
                frame.fec_recovered,
            )
        )

    def _on_frame_lost(self, stream: _StreamState, frame_id: int) -> None:
        stream.packet_buffer.drop_frame(frame_id)
        self.metrics.record_frame_drop(
            self.sim.now, stream.ssrc, frame_id, "declared-lost"
        )

    # -- RTCP out --------------------------------------------------------------

    def _send_rtcp(self, message: RtcpMessage) -> None:
        message.send_time = self.sim.now
        if self._on_rtcp is not None:
            self._on_rtcp(message)
            return
        if (
            message.path_id >= 0
            and message.path_id in self._path_states
            and message.path_id in self.paths
        ):
            # Per-path reports (transport feedback, receiver reports)
            # ride their own path's reverse channel, as a real
            # per-interface RTCP socket would: an outage there silences
            # exactly that path's control loop, which the sender-side
            # watchdog must then survive.
            self.paths.get(message.path_id).send_feedback(message)
            return
        # Call-level RTCP rides the most recently active path: reports
        # about a failing path must not depend on it delivering them.
        # Only paths still in the call qualify — a removed path may
        # retain receive state only long enough for its final report.
        candidates = [pid for pid in self._path_states if pid in self.paths]
        if not candidates:
            return
        best = max(
            candidates,
            key=lambda pid: self._path_states[pid].last_activity,
        )
        self.paths.get(best).send_feedback(message)

    def _send_nack(self, stream: _StreamState, seqs: List[int]) -> None:
        self._send_rtcp(Nack(ssrc=stream.ssrc, path_id=-1, seqs=seqs))

    def _send_qoe_feedback(
        self, stream: _StreamState, decision: FeedbackDecision
    ) -> None:
        self.metrics.record_feedback(
            self.sim.now, decision.path_id, decision.alpha, decision.fcd
        )
        self._send_rtcp(
            QoeFeedback(
                ssrc=stream.ssrc,
                path_id=decision.path_id,
                alpha=decision.alpha,
                fcd=decision.fcd,
            )
        )

    def _request_keyframe(self, stream: _StreamState) -> None:
        now = self.sim.now
        if now - stream.last_keyframe_request < KEYFRAME_REQUEST_MIN_INTERVAL:
            return
        stream.last_keyframe_request = now
        self.metrics.record_keyframe_request(now, stream.ssrc)
        self._send_rtcp(KeyframeRequest(ssrc=stream.ssrc, path_id=-1))

    def _watch_keyframes(self) -> None:
        """Request keyframes when the decoder is desynced or starved."""
        now = self.sim.now
        for stream in self._streams.values():
            desynced = (
                stream.frame_buffer.awaiting_keyframe
                and stream.decoder.frames_decoded > 0
            )
            starved = (
                stream.decoder.frames_decoded > 0
                and stream.frame_buffer.depth > 0
                and now - stream.last_render_time > _DECODER_STALL_TIMEOUT
            )
            if desynced or starved:
                self._request_keyframe(stream)

    def _emit_transport_feedback(self) -> None:
        for path_id, state in self._path_states.items():
            if not state.transport_entries:
                continue
            entries = state.transport_entries
            state.transport_entries = []
            self._send_rtcp(
                TransportFeedback(ssrc=0, path_id=path_id, packets=entries)
            )

    def _emit_receiver_reports(self) -> None:
        for path_id, state in self._path_states.items():
            expected = state.highest_mp_seq - state.prev_highest_mp_seq
            received = state.received_count - state.prev_received_count
            if expected <= 0:
                continue
            lost = max(expected - received, 0)
            state.cumulative_lost += lost
            fraction = min(max(lost / expected, 0.0), 1.0)
            state.prev_highest_mp_seq = state.highest_mp_seq
            state.prev_received_count = state.received_count
            self._send_rtcp(
                ReceiverReport(
                    ssrc=0,
                    path_id=path_id,
                    fraction_lost=fraction,
                    cumulative_lost=state.cumulative_lost,
                    extended_highest_mp_seq=state.highest_mp_seq,
                )
            )

    # -- control in -------------------------------------------------------------

    def on_rtcp_from_sender(self, message: RtcpMessage) -> None:
        """Handle sender-to-receiver RTCP (the SDES frame-rate item)."""
        if isinstance(message, SdesFrameRate):
            stream = self._streams.get(message.ssrc)
            if stream is not None:
                stream.feedback.set_expected_frame_rate(message.frame_rate)

    # -- lifecycle -----------------------------------------------------------------

    def on_path_added(self, path_id: int) -> None:
        """Wire ingress for a path born mid-call."""
        self.paths.get(path_id).on_deliver = self.on_packet
        self._path_states.setdefault(path_id, _PathReceiveState())

    def on_path_removed(self, path_id: int) -> None:
        """Drop receive state for a dead path, flushing its last report.

        Call this *after* the path leaves the :class:`PathSet`: the
        final transport feedback (acks for packets that landed just
        before the teardown) then rides a surviving path, exactly like
        call-level RTCP.
        """
        state = self._path_states.pop(path_id, None)
        if state is None:
            return
        if state.transport_entries:
            self._send_rtcp(
                TransportFeedback(
                    ssrc=0, path_id=path_id, packets=state.transport_entries
                )
            )

    def finalize(self) -> None:
        """Flush buffer-level statistics into the metrics collector."""
        for stream in self._streams.values():
            self.metrics.add_frame_drops(
                stream.frame_buffer.stats.frames_dropped
                + stream.packet_buffer.stats.evicted_frames
            )
            self.metrics.add_fec_stats(
                stream.fec_tracker.stats.fec_received,
                stream.fec_tracker.stats.recoveries,
            )

    def stop(self) -> None:
        self._tf_process.stop()
        self._rr_process.stop()
        self._keyframe_watch.stop()
        for stream in self._streams.values():
            if stream.nack is not None:
                stream.nack.stop()

    # -- helpers ------------------------------------------------------------------

    def _prune_recent(self, stream: _StreamState) -> None:
        if len(stream.recent_packets) > 8192:
            horizon = max(stream.recent_packets) - 4096
            stream.recent_packets = {
                seq: pkt
                for seq, pkt in stream.recent_packets.items()
                if seq >= horizon
            }

    def stream_state(self, ssrc: int) -> _StreamState:
        return self._streams[ssrc]
