"""Conference call orchestration: build, wire, run, summarize."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import CallConfig
from repro.core.sender import SenderSession
from repro.faults.churn import ChurnDriver
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.metrics.qoe import QoeSummary, summarize
from repro.net.multipath import PathSet
from repro.net.path import PathConfig
from repro.receiver.session import ReceiverSession
from repro.rtp.rtcp import RtcpMessage
from repro.scheduling.base import Scheduler
from repro.simulation.process import PeriodicProcess
from repro.simulation.profiling import SimProfiler
from repro.simulation.simulator import Simulator
from repro.traces.scenarios import birth_path

# Grace window bounds for a graceful path drain: long enough for the
# last in-flight packets' acks to return (≈ 2 RTTs plus one transport
# feedback interval), short enough not to hold dead state around.
_DRAIN_GRACE_MIN = 0.2
_DRAIN_GRACE_MAX = 1.0
# Cadence of the receive-rate and target-rate time series.
SAMPLE_INTERVAL = 0.5


@dataclass
class CallResult:
    """Everything an experiment needs from one finished call."""

    config: CallConfig
    summary: QoeSummary
    metrics: MetricsCollector

    @property
    def label(self) -> str:
        return self.config.label or self.config.system.value


class ConferenceCall:
    """One simulated call between a sender and a receiver endpoint."""

    def __init__(
        self,
        config: CallConfig,
        path_configs: List[PathConfig],
        scheduler: Scheduler,
        fault_plan: Optional[FaultPlan] = None,
        profiler: Optional["SimProfiler"] = None,
        churn_scenario: Optional[str] = None,
    ) -> None:
        self.config = config
        self.sim = Simulator(config.seed)
        self.paths = PathSet(self.sim, path_configs)
        self.metrics = MetricsCollector()
        self.scheduler = scheduler
        # Trace scenario used to synthesize capacity/loss for paths
        # born mid-call (churn BIRTH events); None disables births.
        self._churn_scenario = churn_scenario
        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None and len(fault_plan):
            self.fault_injector = FaultInjector(
                self.sim, self.paths, fault_plan, self.metrics
            )
            self.fault_injector.arm()
        self.churn_driver: Optional[ChurnDriver] = None
        if fault_plan is not None and fault_plan.churn:
            self.churn_driver = ChurnDriver(self.sim, self, fault_plan.churn)
            self.churn_driver.arm()
        ssrcs = [index + 1 for index in range(config.num_streams)]
        self.receiver = ReceiverSession(
            self.sim,
            self.paths,
            ssrcs,
            config.receiver,
            self.metrics,
            nack_enabled=config.nack_enabled,
            qoe_feedback_enabled=config.qoe_feedback_enabled,
        )
        self.sender = SenderSession(
            self.sim,
            self.paths,
            config,
            scheduler,
            self.metrics,
            send_rtcp_to_receiver=self._deliver_rtcp_to_receiver,
        )
        for path in self.paths:
            path.on_feedback_deliver = self.sender.on_rtcp
        # Propagation delays are static per path; compute the sender→
        # receiver RTCP delay once instead of per message.
        self._rtcp_delay = min(
            p.config.propagation_delay for p in self.paths
        )
        self._sampler = PeriodicProcess(
            self.sim, SAMPLE_INTERVAL, self._sample
        )
        if profiler is not None:
            profiler.attach_call(self)

    def _deliver_rtcp_to_receiver(self, message: RtcpMessage) -> None:
        self.sim.schedule(
            self._rtcp_delay, self.receiver.on_rtcp_from_sender, message
        )

    # -- path lifecycle ----------------------------------------------------

    def add_path(self, path_id: int, network: str) -> None:
        """Bring a new path up mid-call (WiFi association, LTE attach).

        The path is wired into both endpoints and starts with a
        bootstrap GCC estimate; schedulers see it in the next round's
        snapshots and Eq. 1 re-normalizes the split as its estimate
        earns share.
        """
        if self._churn_scenario is None:
            raise ValueError(
                "cannot synthesize a mid-call path without a trace "
                "scenario (pass churn_scenario to the call)"
            )
        now = self.sim.now
        config = birth_path(
            self._churn_scenario,
            network,
            path_id,
            self.config.duration,
            self.sim.streams,
        )
        path = self.paths.add_path(config)
        path.on_feedback_deliver = self.sender.on_rtcp
        self.receiver.on_path_added(path_id)
        self.sender.on_path_added(path_id)
        self._rtcp_delay = min(
            p.config.propagation_delay for p in self.paths
        )
        self.metrics.record_churn_event(now, path_id, "birth")

    def remove_path(self, path_id: int, graceful: bool = False) -> None:
        """Tear a path down mid-call.

        Abrupt (``graceful=False``): the interface vanished — ingress
        is detached immediately, in-flight packets reroute to the
        survivors as priority retransmissions.  Graceful: the path
        stops taking new media but keeps its feedback channel for a
        short grace window so in-flight packets are acked, then the
        residue (if any) reroutes and the path is removed.
        """
        if path_id not in self.paths:
            raise KeyError(f"unknown path id {path_id}")
        pm = self.sender.path_manager
        live = [
            pid
            for pid in self.paths.path_ids
            if pid != path_id and not pm.is_draining(pid)
        ]
        if not live:
            raise ValueError("cannot remove the last live path of a call")
        now = self.sim.now
        if graceful:
            self.sender.begin_path_drain(path_id)
            self.metrics.record_churn_event(now, path_id, "drain")
            grace = min(
                max(2.0 * pm.srtt(path_id), _DRAIN_GRACE_MIN),
                _DRAIN_GRACE_MAX,
            )
            self.sim.schedule(grace, self._finalize_removal, path_id)
        else:
            self.metrics.record_churn_event(now, path_id, "death")
            self._finalize_removal(path_id)

    def _finalize_removal(self, path_id: int) -> None:
        if path_id not in self.paths:
            return  # already removed
        path = self.paths.remove_path(path_id)
        # Detach ingress so anything still propagating on the dead
        # path's wire silently evaporates instead of resurrecting
        # receiver state.
        path.on_deliver = None
        path.on_feedback_deliver = None
        self.receiver.on_path_removed(path_id)
        self.sender.on_path_removed(path_id)
        self._rtcp_delay = min(
            p.config.propagation_delay for p in self.paths
        )
        self.metrics.record_churn_event(self.sim.now, path_id, "removed")

    def _sample(self) -> None:
        self.metrics.record_receive_rate_sample(self.sim.now)

    def run(self, duration: Optional[float] = None) -> CallResult:
        """Run the call to completion and summarize its QoE."""
        duration = duration if duration is not None else self.config.duration
        self.sim.run(until=duration)
        self.sender.stop()
        self.receiver.stop()
        self.receiver.finalize()
        summary = summarize(
            self.metrics,
            duration=duration,
            num_streams=self.config.num_streams,
            frame_rate=self.config.frame_rate,
            rd_model=self.config.encoder_template.rd_model,
        )
        return CallResult(
            config=self.config, summary=summary, metrics=self.metrics
        )
