"""Tests for the core: config, API factory, path manager, signaling."""

import gc

import pytest

from repro.core import (
    CallConfig,
    FecMode,
    IceAgent,
    SdpAnswer,
    SdpOffer,
    SystemKind,
    build_call_config,
    negotiate_multipath,
)
from repro.core.api import build_scheduler, run_call
from repro.core.path_manager import PathManager
from repro.core.session import ConferenceCall
from repro.experiments.cells import ConstantPaths, make_cell
from repro.experiments.common import scenario_paths
from repro.net.multipath import PathSet
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.receiver.session import ReceiverConfig
from repro.rtp.packets import FRAME_TYPE_DELTA, PacketType, RtpPacket
from repro.rtp.rtcp import QoeFeedback, ReceiverReport, TransportFeedback
from repro.scheduling import (
    ConnectionMigrationScheduler,
    ConvergeScheduler,
    MinRttScheduler,
    MprtpScheduler,
    SinglePathScheduler,
    ThroughputScheduler,
)
from repro.simulation import Simulator


class TestCallConfig:
    def test_defaults_validate(self):
        config = CallConfig()
        assert config.is_multipath

    def test_single_path_systems_not_multipath(self):
        assert not CallConfig(system=SystemKind.WEBRTC).is_multipath
        assert not CallConfig(system=SystemKind.WEBRTC_CM).is_multipath

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CallConfig(duration=0.0)
        with pytest.raises(ValueError):
            CallConfig(num_streams=0)

    def test_label_defaults_to_system(self):
        assert CallConfig(system=SystemKind.SRTT).label == "srtt"

    def test_leaves_the_receiver_config_it_was_passed_alone(self):
        receiver = ReceiverConfig()
        CallConfig(
            system=SystemKind.WEBRTC,
            qoe_feedback_enabled=False,
            nack_enabled=False,
            receiver=receiver,
        )
        assert receiver == ReceiverConfig()

    def test_reused_receiver_config_keeps_cell_keys_equal(self):
        # One ReceiverConfig object shared by several cells (a sweep
        # grid): building a config in between must not move their keys.
        receiver = ReceiverConfig()
        paths = ConstantPaths((8e6,), (0.02,), (0.0,))
        key = make_cell(paths, SystemKind.WEBRTC, receiver=receiver).key()
        again = make_cell(paths, SystemKind.WEBRTC, receiver=receiver)
        assert again.key() == key
        build_call_config(SystemKind.WEBRTC, receiver=receiver)
        after = make_cell(paths, SystemKind.WEBRTC, receiver=receiver)
        assert after.key() == key


class TestBuildCallConfig:
    def test_converge_gets_its_own_fec_and_feedback(self):
        config = build_call_config(SystemKind.CONVERGE)
        assert config.fec_mode is FecMode.CONVERGE
        assert config.qoe_feedback_enabled

    def test_variants_get_webrtc_fec_without_feedback(self):
        for system in (SystemKind.SRTT, SystemKind.MTPUT, SystemKind.MRTP,
                       SystemKind.WEBRTC):
            config = build_call_config(system)
            assert config.fec_mode is FecMode.WEBRTC_TABLE
            assert not config.qoe_feedback_enabled

    def test_overrides_respected(self):
        config = build_call_config(
            SystemKind.CONVERGE, fec_mode=FecMode.NONE, qoe_feedback_enabled=False
        )
        assert config.fec_mode is FecMode.NONE
        assert not config.qoe_feedback_enabled


class TestBuildScheduler:
    def test_mapping(self):
        cases = [
            (SystemKind.CONVERGE, ConvergeScheduler),
            (SystemKind.WEBRTC, SinglePathScheduler),
            (SystemKind.WEBRTC_CM, ConnectionMigrationScheduler),
            (SystemKind.SRTT, MinRttScheduler),
            (SystemKind.MTPUT, ThroughputScheduler),
            (SystemKind.MRTP, MprtpScheduler),
        ]
        for system, scheduler_type in cases:
            config = build_call_config(system)
            assert isinstance(build_scheduler(config), scheduler_type)


def make_manager(num_paths=2):
    from repro.cc.gcc import GccConfig

    sim = Simulator(seed=1)
    paths = PathSet(
        sim,
        [
            PathConfig(path_id=i, trace=BandwidthTrace.constant(10e6))
            for i in range(num_paths)
        ],
    )
    # Start the per-path estimates high enough that P_max does not cap
    # the budgets in these unit tests.
    manager = PathManager(sim, paths, GccConfig(initial_rate=10e6))
    return sim, manager


def media_packet(seq):
    return RtpPacket(
        ssrc=1, seq=seq, timestamp=0, frame_id=0,
        frame_type=FRAME_TYPE_DELTA, packet_type=PacketType.MEDIA,
        payload_size=1200,
    )


class TestPathManager:
    def test_bind_assigns_multipath_fields(self):
        sim, manager = make_manager()
        a = manager.bind(media_packet(0), 0, now=0.0)
        b = manager.bind(media_packet(1), 0, now=0.0)
        c = manager.bind(media_packet(2), 1, now=0.0)
        assert (a.mp_seq, b.mp_seq) == (0, 1)
        assert c.mp_seq == 0  # independent per path
        assert a.path_id == 0 and c.path_id == 1

    def test_transport_feedback_drives_gcc(self):
        sim, manager = make_manager()
        for i in range(50):
            manager.bind(media_packet(i), 0, now=i * 0.002)
        message = TransportFeedback(
            ssrc=0,
            path_id=0,
            packets=[(i, i * 0.002 + 0.05) for i in range(50)],
        )
        sim.run(until=0.2)
        manager.on_transport_feedback(message)
        assert manager.target_rate(0) > 0
        assert 0.0 < manager.srtt(0) < 1.0

    def test_receiver_report_updates_loss(self):
        sim, manager = make_manager()
        manager.on_receiver_report(
            ReceiverReport(ssrc=0, path_id=0, fraction_lost=0.2)
        )
        assert manager.loss_estimate(0) > 0.0
        assert manager.loss_for_fec(0) >= manager.loss_estimate(0)

    def test_negative_feedback_reduces_budget(self):
        sim, manager = make_manager()
        before = manager.snapshots(40, 1200, now=0.0)
        manager.on_qoe_feedback(
            QoeFeedback(ssrc=1, path_id=1, alpha=-10, fcd=0.05)
        )
        after = manager.snapshots(40, 1200, now=0.0)
        assert after[1].budget_packets < before[1].budget_packets

    def test_positive_feedback_only_restores(self):
        sim, manager = make_manager()
        manager.on_qoe_feedback(QoeFeedback(ssrc=1, path_id=1, alpha=-10, fcd=0.05))
        manager.on_qoe_feedback(QoeFeedback(ssrc=1, path_id=1, alpha=+30, fcd=0.05))
        assert manager.adjustment(1) == 0.0

    def test_sustained_zero_budget_disables_path(self):
        sim, manager = make_manager()
        manager.on_qoe_feedback(
            QoeFeedback(ssrc=1, path_id=1, alpha=-200, fcd=0.05)
        )
        for _ in range(10):
            manager.snapshots(40, 1200, now=sim.now)
        assert 1 in manager.disabled_path_ids()

    def test_budgets_sum_to_media_count_when_unconstrained(self):
        sim, manager = make_manager()
        # give both paths live feedback so the split is rate-based
        for path_id in (0, 1):
            for i in range(20):
                manager.bind(media_packet(i), path_id, now=0.001 * i)
            manager.on_transport_feedback(
                TransportFeedback(
                    ssrc=0,
                    path_id=path_id,
                    packets=[(i, 0.001 * i + 0.03) for i in range(20)],
                )
            )
        snapshots = manager.snapshots(40, 1200, now=0.1)
        total_budget = sum(s.budget_packets for s in snapshots)
        assert 38 <= total_budget <= 42

    def test_effective_rate_reflects_penalties(self):
        sim, manager = make_manager()
        for path_id in (0, 1):
            manager._states[path_id].last_feedback_time = 0.0
        full = manager.effective_aggregate_rate()
        manager.on_qoe_feedback(QoeFeedbackFactory(path_id=1, alpha=-20))
        reduced = manager.effective_aggregate_rate()
        assert reduced < full

    def test_probe_schedule(self):
        sim, manager = make_manager()
        manager._states[1].enabled = False
        assert manager.should_probe(1, now=1.0)
        assert not manager.should_probe(1, now=1.05)
        assert manager.should_probe(1, now=1.3)
        assert not manager.should_probe(0, now=2.0)  # enabled path


def QoeFeedbackFactory(path_id, alpha):
    return QoeFeedback(ssrc=1, path_id=path_id, alpha=alpha, fcd=0.05)


class TestSignaling:
    def _offer(self, multipath=True, networks=("wifi", "lte")):
        agent = IceAgent(networks=list(networks))
        return SdpOffer(
            ssrcs=[1, 2],
            candidates=agent.gather_candidates(),
            multipath_supported=multipath,
        )

    def _answer(self, multipath=True, networks=("wifi", "lte")):
        agent = IceAgent(networks=list(networks))
        return SdpAnswer(
            candidates=agent.gather_candidates(),
            multipath_supported=multipath,
        )

    def test_multipath_agreed_when_both_support(self):
        result = negotiate_multipath(self._offer(), self._answer())
        assert result.multipath
        assert result.agreed_path_ids == [0, 1]

    def test_fallback_when_answerer_is_legacy(self):
        result = negotiate_multipath(self._offer(), self._answer(multipath=False))
        assert not result.multipath
        assert len(result.agreed_path_ids) == 1
        assert result.fallback_reason

    def test_fallback_when_offerer_is_legacy(self):
        result = negotiate_multipath(self._offer(multipath=False), self._answer())
        assert not result.multipath

    def test_single_common_network_falls_back(self):
        result = negotiate_multipath(
            self._offer(networks=("wifi",)), self._answer(networks=("wifi",))
        )
        assert not result.multipath
        assert result.agreed_path_ids == [0]

    def test_no_common_candidates_raises(self):
        offer = self._offer(networks=())
        with pytest.raises(ValueError):
            negotiate_multipath(offer, self._answer())

    def test_sdp_attributes(self):
        offer = self._offer()
        attrs = offer.attributes()
        assert "a=ssrc:1" in attrs
        assert any("multipath" in a for a in attrs)
        assert self._answer(multipath=False).attributes() == []


class TestRunCallCollector:
    """``run_call`` pauses the cyclic collector for the length of a call
    and must leave it, and memory, as it found them."""

    @staticmethod
    def call(duration=2.0):
        return run_call(
            build_call_config(SystemKind.CONVERGE, duration=duration, seed=1),
            scenario_paths("driving", duration, 1),
        )

    def test_collector_state_restored_on_return(self):
        assert gc.isenabled()
        self.call()
        assert gc.isenabled()

    def test_collector_state_restored_when_a_callback_raises(
        self, monkeypatch
    ):
        def boom(self):
            assert not gc.isenabled()  # the call runs with it paused
            raise RuntimeError("callback failed")

        monkeypatch.setattr(ConferenceCall, "_sample", boom)
        with pytest.raises(RuntimeError, match="callback failed"):
            self.call()
        assert gc.isenabled()

    def test_collector_left_off_when_entered_off(self, monkeypatch):
        collections = []
        monkeypatch.setattr(gc, "collect", collections.append)
        gc.disable()
        try:
            self.call()
            assert not gc.isenabled()
            assert collections == []
        finally:
            gc.enable()

    def test_finished_calls_do_not_accumulate(self):
        # A call graph is cyclic, so only the collector frees it, and a
        # call is tens of thousands of objects.  Against a fully
        # collected baseline, no finished call may still be in memory
        # when run_call returns: pausing the collector only around
        # sim.run leaves each one waiting for an older generation's
        # pass, as running with the collector on does.
        self.call()
        gc.collect()
        baseline = len(gc.get_objects())
        for _ in range(9):
            self.call()
        assert abs(len(gc.get_objects()) - baseline) < 100
