"""The sender pipeline: cameras -> encoders -> scheduler -> FEC -> paths.

One :class:`SenderSession` drives all camera streams of a call.  Per
frame tick it encodes, packetizes, consults the scheduler for path
assignments, generates FEC according to the configured controller
(path-specific Converge FEC or WebRTC's application-level table), and
hands packets to the per-path pacer.  Incoming RTCP (transport
feedback, receiver reports, NACK, keyframe requests, QoE feedback)
updates GCC, the encoder rate, retransmissions and the Eq. 2 budgets.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.cc.pacing import Pacer
from repro.core.config import (
    FEC_MODE_CONVERGE,
    FEC_MODE_WEBRTC_TABLE,
    CallConfig,
)
from repro.core.path_manager import PathManager
from repro.fec.converge_controller import ConvergeFecController
from repro.fec.tables import webrtc_protection_factor
from repro.fec.webrtc_controller import WebRtcFecController
from repro.metrics.collector import MetricsCollector
from repro.net.multipath import PathSet
from repro.rtp.packets import (
    FRAME_TYPE_KEY,
    PACKET_FEC,
    PACKET_KEYFRAME,
    PACKET_MEDIA,
    PACKET_PPS,
    PACKET_RETRANSMISSION,
    PACKET_SPS,
    RtpPacket,
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
from repro.scheduling.base import DROP_PATH, Scheduler
from repro.simulation.process import PeriodicProcess
from repro.simulation.simulator import Simulator
from repro.video.encoder import Encoder
from repro.video.packetizer import Packetizer
from repro.video.source import CameraSource

_RTX_HISTORY_LIMIT = 4096
_RATE_UPDATE_INTERVAL = 0.1
_SDES_INTERVAL = 1.0
# Retransmissions are capped at this fraction of the transport budget
# so a NACK storm under congestion cannot displace live media (WebRTC
# bounds its RTX allocation the same way).
_RTX_RATE_FRACTION = 0.15
# Padding probe bursts (PROBE_BWE): back-to-back packets whose arrival
# spacing measures link capacity, letting GCC recover quickly after a
# coverage fade instead of crawling up at 8%/s.
_CAPACITY_PROBE_INTERVAL = 2.0
_PROBE_BURST_PACKETS = 8
_PROBE_PACKET_BYTES = 800
_PADDING_SSRC = 0
# Cap on in-flight packets rerouted when a path dies.  A path that
# dies with a deep unacked backlog mostly held stale media; replaying
# all of it onto the survivors would displace live frames, so only the
# newest packets (the ones a receiver could still render) are saved.
_REROUTE_LIMIT = 64
# FEC grouping: at most this many media packets per XOR group.
_FEC_GROUP_SIZE = 10
# Packets whose loss breaks the decode chain (§3.3).
_CHAIN_CRITICAL = (
    PACKET_KEYFRAME, PACKET_SPS, PACKET_PPS, PACKET_RETRANSMISSION
)


@dataclass
class _StreamSender:
    ssrc: int
    encoder: Encoder
    packetizer: Packetizer
    camera: CameraSource
    rtx_history: Dict[int, RtpPacket]
    rtx_order: Deque[int]
    # Set when shedding broke the reference chain: delta frames are
    # pointless to send until a keyframe re-anchors the decoder.
    chain_broken: bool = False
    frames_dropped_at_sender: int = 0


class SenderSession:
    """Drives all outgoing media for one endpoint of the call."""

    def __init__(
        self,
        sim: Simulator,
        paths: PathSet,
        config: CallConfig,
        scheduler: Scheduler,
        metrics: MetricsCollector | None = None,
        send_rtcp_to_receiver: Optional[Callable[[RtcpMessage], None]] = None,
    ) -> None:
        self.sim = sim
        self.paths = paths
        self.config = config
        self.scheduler = scheduler
        self.metrics = metrics or MetricsCollector()
        self._send_rtcp_to_receiver = send_rtcp_to_receiver
        self.path_manager = PathManager(sim, paths, config.gcc, self.metrics)
        self._path_by_id = paths.by_id
        self.pacer = Pacer(sim, self._send_on_path)
        self._fec_seq = 1_000_000  # FEC/RTX use their own sequence space
        self._rtx_seq = 2_000_000
        self.nacks_received = 0
        self.packets_shed = 0
        self._last_shed_keyframe = -1e9

        self._streams: Dict[int, _StreamSender] = {}
        for index in range(config.num_streams):
            ssrc = index + 1
            encoder_config = dataclasses.replace(
                config.encoder_template,
                ssrc=ssrc,
                frame_rate=config.frame_rate,
            )
            encoder = Encoder(encoder_config, sim.streams)
            packetizer = Packetizer(ssrc)
            camera = CameraSource(
                sim,
                config.frame_rate,
                on_capture=(
                    lambda t, _ssrc=ssrc: self._on_capture(_ssrc, t)
                ),
                start_offset=index * (1.0 / config.frame_rate / max(config.num_streams, 1)),
            )
            self._streams[ssrc] = _StreamSender(
                ssrc=ssrc,
                encoder=encoder,
                packetizer=packetizer,
                camera=camera,
                rtx_history={},
                rtx_order=deque(),
            )

        self._converge_fec = ConvergeFecController()
        self._webrtc_fec = WebRtcFecController()
        self._rtx_window: Deque[Tuple[float, int]] = deque()
        self._rtx_window_bytes = 0  # running sum of the window's sizes
        self._rate_process = PeriodicProcess(
            sim, _RATE_UPDATE_INTERVAL, self._update_rates
        )
        self._sdes_process = PeriodicProcess(
            sim, _SDES_INTERVAL, self._announce_frame_rate
        )
        self._probe_process = PeriodicProcess(
            sim, _CAPACITY_PROBE_INTERVAL, self._send_capacity_probes
        )
        self._padding_seq = 3_000_000

    @property
    def ssrcs(self) -> List[int]:
        return list(self._streams)

    # -- encode & schedule -------------------------------------------------

    def _on_capture(self, ssrc: int, capture_time: float) -> None:
        stream = self._streams[ssrc]
        frame = stream.encoder.encode_frame(capture_time)
        if stream.chain_broken:
            if frame.is_keyframe:
                stream.chain_broken = False
            else:
                # The decoder cannot use this delta anyway; dropping it
                # at the encoder (as WebRTC does) saves the bandwidth
                # for the keyframe that repairs the chain.  Keep
                # re-requesting that keyframe — a shed event inside the
                # limiter window must not leave the chain broken with
                # no repair pending.
                stream.frames_dropped_at_sender += 1
                if capture_time - self._last_shed_keyframe > 0.15:
                    self._last_shed_keyframe = capture_time
                    stream.encoder.request_keyframe()
                return
        self.metrics.record_encoded_frame(
            ssrc,
            frame.frame_id,
            capture_time,
            frame.size_bytes,
            frame.qp,
            frame.is_keyframe,
        )
        packets = stream.packetizer.packetize(frame)
        for packet in packets:
            self._remember_for_rtx(stream, packet)
        self._schedule_round(stream, packets, frame.is_keyframe)

    def _schedule_round(
        self,
        stream: _StreamSender,
        packets: List[RtpPacket],
        is_keyframe: bool,
    ) -> None:
        now = self.sim.now
        avg_size = max(
            sum(p.size_bytes for p in packets) // max(len(packets), 1), 1
        )
        snapshots = self.path_manager.snapshots(len(packets), avg_size, now)

        fec_mode = self.config.fec_mode
        to_schedule = list(packets)
        if fec_mode is FEC_MODE_WEBRTC_TABLE:
            to_schedule.extend(
                self._make_webrtc_fec(stream, packets, is_keyframe)
            )
        assignments = self.scheduler.assign(to_schedule, snapshots, now)
        shed = [p for p, path_id in assignments if path_id == DROP_PATH]
        if shed:
            # Packets shed at the sender break the frame they belong
            # to.  Mark the chain broken — subsequent deltas are
            # dropped whole at the encoder — and schedule a keyframe
            # to re-anchor, rate-limited so sustained overload does
            # not turn into a keyframe-per-frame burst storm.
            self.packets_shed += len(shed)
            stream.chain_broken = True
            if now - self._last_shed_keyframe > 0.15:
                self._last_shed_keyframe = now
                stream.encoder.request_keyframe()
            # A partially-shed frame is undecodable: sending the rest
            # of it would only waste bandwidth, so drop this stream's
            # whole round (priority packets of *other* frames — RTX —
            # keep flowing).
            shed_frames = {p.frame_id for p in shed}
            assignments = [
                (p, path_id)
                for p, path_id in assignments
                if path_id != DROP_PATH and p.frame_id not in shed_frames
            ]
            stream.frames_dropped_at_sender += len(shed_frames)
        if fec_mode is FEC_MODE_CONVERGE:
            assignments.extend(
                self._make_converge_fec(stream, assignments, now)
            )
        for packet, path_id in assignments:
            self.pacer.enqueue(packet, path_id)
        self._maybe_probe(now)

    # -- FEC generation ------------------------------------------------------

    def _make_webrtc_fec(
        self,
        stream: _StreamSender,
        packets: List[RtpPacket],
        is_keyframe: bool,
    ) -> List[RtpPacket]:
        """Application-level FEC over the whole frame (WebRTC table)."""
        media = [p for p in packets if p.packet_type is not PACKET_FEC]
        num_fec = self._webrtc_fec.num_fec_packets(len(media), is_keyframe)
        return self._build_fec_packets(stream, media, num_fec)

    def _make_converge_fec(
        self,
        stream: _StreamSender,
        assignments: List[Tuple[RtpPacket, int]],
        now: float,
    ) -> List[Tuple[RtpPacket, int]]:
        """Path-specific FEC over each path's share of the round (§4.3)."""
        by_path: Dict[int, List[RtpPacket]] = {}
        for packet, path_id in assignments:
            if packet.packet_type is not PACKET_FEC:
                by_path.setdefault(path_id, []).append(packet)
        fec_assignments: List[Tuple[RtpPacket, int]] = []
        # Reliability-level control (§3.1, Fig. 6): protection packets
        # for a lossy path's media travel on the cleanest path, so a
        # slow-path loss is repairable without waiting for RTX.
        enabled = self.path_manager.enabled_path_ids()
        cleanest = min(
            enabled,
            key=lambda pid: (
                self.path_manager.loss_estimate(pid),
                self.path_manager.srtt(pid),
            ),
            default=None,
        )
        for path_id, media in by_path.items():
            loss = self.path_manager.loss_for_fec(path_id)
            num_fec = self._converge_fec.num_fec_packets(
                path_id, len(media), loss, now
            )
            # Video-structure-aware protection (§3.3): packets whose
            # loss breaks the decode chain (keyframes, parameter sets,
            # retransmissions) get doubled protection, as WebRTC does
            # for keyframes — but path-specific here.
            critical = any(
                p.frame_type == FRAME_TYPE_KEY for p in media
            ) and any(p.packet_type in _CHAIN_CRITICAL for p in media)
            if critical:
                num_fec = min(2 * num_fec, len(media))
                if num_fec == 0 and loss > 0:
                    num_fec = 1
            fec_path = path_id
            if (
                cleanest is not None
                and cleanest != path_id
                and self.path_manager.loss_estimate(path_id)
                > self.path_manager.loss_estimate(cleanest) + 0.005
            ):
                fec_path = cleanest
            for fec in self._build_fec_packets(stream, media, num_fec):
                fec_assignments.append((fec, fec_path))
        return fec_assignments

    def _build_fec_packets(
        self,
        stream: _StreamSender,
        media: List[RtpPacket],
        num_fec: int,
    ) -> List[RtpPacket]:
        """Split ``media`` into XOR groups, one FEC packet per group."""
        if num_fec <= 0 or not media:
            return []
        num_fec = min(num_fec, len(media))
        groups: List[List[RtpPacket]] = [[] for _ in range(num_fec)]
        for index, packet in enumerate(media):
            groups[index % num_fec].append(packet)
        fec_packets: List[RtpPacket] = []
        for group in groups:
            if not group:
                continue
            group = group[:_FEC_GROUP_SIZE]
            template = group[0]
            self._fec_seq += 1
            fec_packets.append(
                RtpPacket(
                    stream.ssrc,
                    self._fec_seq,
                    template.timestamp,
                    template.frame_id,
                    template.frame_type,
                    PACKET_FEC,
                    max(p.payload_size for p in group),
                    template.capture_time,
                    template.gop_id,
                    protected_seqs=[p.seq for p in group],
                    protected_packets=list(group),
                )
            )
        return fec_packets

    # -- RTCP in ----------------------------------------------------------------

    def on_rtcp(self, message: RtcpMessage) -> None:
        """Entry point for all receiver-to-sender RTCP."""
        if isinstance(message, TransportFeedback):
            self.path_manager.on_transport_feedback(message)
            # Late feedback for a path that already left the call is
            # still possible (its last report rides a surviving path).
            if self.path_manager.has_path(message.path_id):
                self.pacer.set_path_rate(
                    message.path_id,
                    self.path_manager.pacing_rate(message.path_id),
                )
        elif isinstance(message, ReceiverReport):
            self.path_manager.on_receiver_report(message)
            self._webrtc_fec.on_loss_report(self.path_manager.aggregate_loss())
        elif isinstance(message, Nack):
            self._handle_nack(message)
        elif isinstance(message, KeyframeRequest):
            stream = self._streams.get(message.ssrc)
            if stream is not None:
                stream.encoder.request_keyframe()
        elif isinstance(message, QoeFeedback):
            if (
                self.config.qoe_feedback_enabled
                and self.scheduler.uses_qoe_feedback
            ):
                self.path_manager.on_qoe_feedback(message)

    def _handle_nack(self, message: Nack) -> None:
        stream = self._streams.get(message.ssrc)
        if stream is None:
            return
        now = self.sim.now
        rtx_packets: List[RtpPacket] = []
        for seq in message.seqs:
            original = stream.rtx_history.get(seq)
            if original is None:
                continue
            self.nacks_received += 1
            if not self._rtx_budget_allows(original.size_bytes, now):
                continue
            if (
                self.config.fec_mode is FEC_MODE_CONVERGE
                and original.path_id >= 0
            ):
                self._converge_fec.on_nack(original.path_id, 1, now)
            self._rtx_seq += 1
            rtx_packets.append(
                original.clone_for_retransmission(self._rtx_seq, now)
            )
        if not rtx_packets:
            return
        avg_size = max(
            sum(p.size_bytes for p in rtx_packets) // len(rtx_packets), 1
        )
        snapshots = self.path_manager.snapshots(
            len(rtx_packets), avg_size, now
        )
        for packet, path_id in self.scheduler.assign(
            rtx_packets, snapshots, now
        ):
            self.pacer.enqueue(packet, path_id)

    def _rtx_budget_allows(self, size_bytes: int, now: float) -> bool:
        window = self._rtx_window
        while window and window[0][0] < now - 1.0:
            self._rtx_window_bytes -= window.popleft()[1]
        budget = _RTX_RATE_FRACTION * max(
            self.path_manager.aggregate_rate(), 300_000.0
        )
        spent = self._rtx_window_bytes * 8
        if spent + size_bytes * 8 > budget:
            return False
        window.append((now, size_bytes))
        self._rtx_window_bytes += size_bytes
        return True

    # -- periodic upkeep -----------------------------------------------------------

    def _update_rates(self) -> None:
        aggregate = self.path_manager.effective_aggregate_rate(
            frame_rate=self.config.frame_rate
        )
        # The GCC target is a *transport* budget: FEC and header bytes
        # ride inside it, so the encoder gets what is left after
        # protection (WebRTC's media-optimization split).  Without
        # this, table-FEC overhead stacks on top of the target and
        # self-congests the path.
        media_fraction = (
            1.0 - self._expected_fec_overhead()
        ) * self.config.encoder_utilization
        per_stream = aggregate * media_fraction / max(self.config.num_streams, 1)
        for stream in self._streams.values():
            stream.encoder.set_target_bitrate(per_stream)
        self.metrics.record_target_rate(self.sim.now, aggregate)
        for path_id in self.paths.path_ids:
            # Pace at the watchdog-effective rate: a feedback-silent
            # path must not keep draining packets at its stale GCC
            # target into what may be a dead link.
            rate = self.path_manager.pacing_rate(path_id)
            self.pacer.set_path_rate(path_id, rate)
            self.metrics.record_path_rate(self.sim.now, path_id, rate)

    def _expected_fec_overhead(self) -> float:
        """Fraction of the transport budget FEC will consume."""
        if self.config.fec_mode is FEC_MODE_WEBRTC_TABLE:
            overhead = webrtc_protection_factor(
                self._webrtc_fec.aggregate_loss
            )
        elif self.config.fec_mode is FEC_MODE_CONVERGE:
            total_rate = 0.0
            weighted = 0.0
            for path_id in self.path_manager.enabled_path_ids():
                rate = self.path_manager.target_rate(path_id)
                loss = self.path_manager.loss_estimate(path_id)
                beta = self._converge_fec.beta(path_id)
                total_rate += rate
                weighted += rate * min(loss * beta, 1.0)
            overhead = weighted / total_rate if total_rate > 0 else 0.0
        else:
            overhead = 0.0
        return min(overhead, 0.5)

    def _announce_frame_rate(self) -> None:
        if self._send_rtcp_to_receiver is None:
            return
        for ssrc in self._streams:
            self._send_rtcp_to_receiver(
                SdesFrameRate(
                    ssrc=ssrc,
                    path_id=-1,
                    send_time=self.sim.now,
                    frame_rate=self.config.frame_rate,
                )
            )

    def _send_capacity_probes(self) -> None:
        """Send a padding burst on each healthy path (PROBE_BWE)."""
        now = self.sim.now
        for path_id in self.path_manager.enabled_path_ids():
            if self.path_manager.is_degraded(path_id):
                # Feedback-silent: a probe burst would measure nothing
                # (no feedback comes back) and only loads the path.
                continue
            if not self.path_manager.carries_media(path_id, now):
                # Never probe an idle path: its inflated estimate would
                # leak into the encoder budget without any media there
                # to validate it.
                continue
            if self.path_manager.loss_estimate(path_id) > 0.08:
                continue
            srtt = self.path_manager.srtt(path_id)
            min_rtt = self.path_manager.min_rtt(path_id)
            if min_rtt > 0 and srtt > min_rtt + 0.08:
                continue  # standing queue: probing would only add to it
            path = self.paths.get(path_id)
            for _ in range(_PROBE_BURST_PACKETS):
                self._padding_seq += 1
                padding = RtpPacket(
                    ssrc=_PADDING_SSRC,
                    seq=self._padding_seq,
                    timestamp=0,
                    frame_id=-1,
                    frame_type="delta",
                    packet_type=PACKET_MEDIA,
                    payload_size=_PROBE_PACKET_BYTES,
                )
                self.path_manager.bind(padding, path_id, now)
                path.send(padding)

    def _maybe_probe(self, now: float) -> None:
        for path_id in self.path_manager.disabled_path_ids():
            if self.path_manager.should_probe(path_id, now):
                probe = self.path_manager.make_probe(path_id, now)
                if probe is not None:
                    # Probes bypass the pacer: they are single duplicate
                    # packets used purely for path measurement.
                    self.paths.get(path_id).send(probe)

    # -- path lifecycle ----------------------------------------------------------

    def on_path_added(self, path_id: int) -> None:
        """Register sender-side state for a path born mid-call."""
        self.path_manager.add_path(path_id)
        self.pacer.set_path_rate(
            path_id, self.path_manager.pacing_rate(path_id)
        )
        self.scheduler.on_path_added(path_id)

    def begin_path_drain(self, path_id: int) -> None:
        """Graceful removal, leg one: stop new media, keep feedback."""
        self.path_manager.begin_drain(path_id)

    def on_path_removed(self, path_id: int) -> None:
        """Tear down sender state for a path that left the call.

        Packets still unacknowledged on the dying path — both those on
        the wire (tracked by the path manager) and those waiting in its
        pacer queue — are rerouted to the surviving paths.  Sent-but-
        unacked media goes out as priority retransmissions (Table 2
        priority 1, so the fast-path rule applies); never-sent queue
        residue is rescheduled as-is.  Path-specific FEC and padding
        probes for the dead path are discarded: their redundancy
        targets no longer exist.
        """
        now = self.sim.now
        in_flight = self.path_manager.remove_path(path_id)
        leftover = self.pacer.drain_path(path_id)
        self.scheduler.on_path_removed(path_id)
        self._converge_fec.forget_path(path_id)

        rtx_packets: List[RtpPacket] = []
        wanted = set(in_flight[-_REROUTE_LIMIT:])
        if wanted:
            for stream in self._streams.values():
                for original in stream.rtx_history.values():
                    if (
                        original.path_id == path_id
                        and original.mp_transport_seq in wanted
                    ):
                        self._rtx_seq += 1
                        rtx_packets.append(
                            original.clone_for_retransmission(
                                self._rtx_seq, now
                            )
                        )
        to_reroute = rtx_packets + [
            p
            for p in leftover
            if isinstance(p, RtpPacket)
            and p.ssrc != _PADDING_SSRC
            and p.packet_type is not PACKET_FEC
        ]
        if not to_reroute:
            return
        avg_size = max(
            sum(p.size_bytes for p in to_reroute) // len(to_reroute), 1
        )
        snapshots = self.path_manager.snapshots(
            len(to_reroute), avg_size, now
        )
        if not snapshots:
            return
        # The reroute bypasses the RTX rate budget: this traffic was
        # already admitted once, on the path that just vanished.
        for packet, target in self.scheduler.assign(
            to_reroute, snapshots, now
        ):
            if target == DROP_PATH:
                self.packets_shed += 1
                continue
            self.pacer.enqueue(packet, target)

    # -- egress ------------------------------------------------------------------

    def _send_on_path(self, packet: RtpPacket, path_id: int) -> None:
        self.path_manager.bind(packet, path_id, self.sim.now)
        record = self.metrics.path_record(path_id)
        packet_type = packet.packet_type
        size = packet.size_bytes
        if packet_type is PACKET_FEC:
            record.fec_packets += 1
            record.fec_bytes += size
        elif packet_type is PACKET_RETRANSMISSION:
            record.rtx_packets += 1
            record.rtx_bytes += size
        else:
            record.media_packets += 1
            record.media_bytes += size
        self._path_by_id[path_id].send(packet)

    # -- helpers --------------------------------------------------------------------

    def _remember_for_rtx(self, stream: _StreamSender, packet: RtpPacket) -> None:
        stream.rtx_history[packet.seq] = packet
        stream.rtx_order.append(packet.seq)
        while len(stream.rtx_order) > _RTX_HISTORY_LIMIT:
            old = stream.rtx_order.popleft()
            stream.rtx_history.pop(old, None)

    def stop(self) -> None:
        self._rate_process.stop()
        self._sdes_process.stop()
        self._probe_process.stop()
        self.path_manager.stop()
        for stream in self._streams.values():
            stream.camera.stop()
