"""Full-duplex conference calls: both endpoints send video.

The paper's conferencing setup is two-way (§6 runs calls between
laptops/phones); uplink and downlink of a cellular/WiFi attachment are
separate radio resources, so each direction gets its own emulated
paths — but both live on one simulator clock, and each endpoint's QoE
is summarized independently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.api import build_scheduler
from repro.core.config import CallConfig
from repro.core.sender import SenderSession
from repro.core.session import SAMPLE_INTERVAL, CallResult
from repro.metrics.collector import MetricsCollector
from repro.metrics.qoe import summarize
from repro.net.multipath import PathSet
from repro.net.path import PathConfig
from repro.receiver.session import ReceiverSession
from repro.rtp.rtcp import RtcpMessage
from repro.scheduling.base import Scheduler
from repro.simulation.process import PeriodicProcess
from repro.simulation.simulator import Simulator


@dataclass
class _Direction:
    """One media direction: a sender, its paths, and the far receiver."""

    name: str
    paths: PathSet
    sender: SenderSession
    receiver: ReceiverSession
    metrics: MetricsCollector
    sampler: PeriodicProcess


class DuplexCall:
    """A two-way call between endpoints A and B on one simulator."""

    def __init__(
        self,
        config: CallConfig,
        forward_paths: List[PathConfig],
        reverse_paths: Optional[List[PathConfig]] = None,
        config_reverse: Optional[CallConfig] = None,
        scheduler_forward: Optional[Scheduler] = None,
        scheduler_reverse: Optional[Scheduler] = None,
    ) -> None:
        self.config_forward = config
        self.config_reverse = config_reverse or dataclasses.replace(
            config, label=f"{config.label}-reverse"
        )
        self.sim = Simulator(config.seed)
        reverse_configs = (
            reverse_paths
            if reverse_paths is not None
            else [_mirror(pc) for pc in forward_paths]
        )
        self.forward = self._build_direction(
            "a-to-b",
            self.config_forward,
            forward_paths,
            scheduler_forward or build_scheduler(self.config_forward),
        )
        self.reverse = self._build_direction(
            "b-to-a",
            self.config_reverse,
            reverse_configs,
            scheduler_reverse or build_scheduler(self.config_reverse),
        )

    def _build_direction(
        self,
        name: str,
        config: CallConfig,
        path_configs: List[PathConfig],
        scheduler: Scheduler,
    ) -> _Direction:
        paths = PathSet(self.sim, path_configs)
        metrics = MetricsCollector()
        ssrcs = [index + 1 for index in range(config.num_streams)]
        receiver = ReceiverSession(
            self.sim,
            paths,
            ssrcs,
            config.receiver,
            metrics,
            nack_enabled=config.nack_enabled,
            qoe_feedback_enabled=config.qoe_feedback_enabled,
        )

        rtcp_delay = min(p.config.propagation_delay for p in paths)

        def deliver_rtcp(message: RtcpMessage) -> None:
            self.sim.schedule(
                rtcp_delay, receiver.on_rtcp_from_sender, message
            )

        sender = SenderSession(
            self.sim,
            paths,
            config,
            scheduler,
            metrics,
            send_rtcp_to_receiver=deliver_rtcp,
        )
        for path in paths:
            path.on_feedback_deliver = sender.on_rtcp
        sampler = PeriodicProcess(
            self.sim,
            SAMPLE_INTERVAL,
            lambda: metrics.record_receive_rate_sample(self.sim.now),
        )
        return _Direction(
            name=name,
            paths=paths,
            sender=sender,
            receiver=receiver,
            metrics=metrics,
            sampler=sampler,
        )

    def run(
        self, duration: Optional[float] = None
    ) -> Tuple[CallResult, CallResult]:
        """Run both directions to completion; returns (forward, reverse)."""
        duration = duration if duration is not None else self.config_forward.duration
        self.sim.run(until=duration)
        results = []
        for direction, config in (
            (self.forward, self.config_forward),
            (self.reverse, self.config_reverse),
        ):
            direction.sender.stop()
            direction.receiver.stop()
            direction.receiver.finalize()
            summary = summarize(
                direction.metrics,
                duration=duration,
                num_streams=config.num_streams,
                frame_rate=config.frame_rate,
                rd_model=config.encoder_template.rd_model,
            )
            results.append(
                CallResult(config=config, summary=summary, metrics=direction.metrics)
            )
        return results[0], results[1]


def _mirror(config: PathConfig) -> PathConfig:
    """The reverse direction of a network attachment.

    Uplink and downlink are distinct resources; by default the mirror
    keeps the same profile but gets independent loss/jitter draws
    (the Path seeds its streams from path id + name, so a distinct
    name suffices).
    """
    import copy

    return dataclasses.replace(
        config,
        name=f"{config.name}-rev",
        # Stateful loss models (Gilbert-Elliott) must not share state
        # across directions.
        loss_model=copy.deepcopy(config.loss_model),
    )
