"""Path lifecycle: dynamic birth/death, drains, reroutes, survival.

Covers the churn machinery end to end: the :class:`PathSet` and
:class:`PathManager` membership operations, pacer/splitter cleanup,
churn plan validation, the canned churn chaos scenarios, and whole-call
survival — a session must keep rendering frames through the abrupt
death of every path but one and through a WiFi->LTE migration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemKind
from repro.core.path_manager import PathManager
from repro.core.api import build_call_config, run_call
from repro.experiments.cells import ScenarioPaths, make_cell
from repro.experiments.common import constant_paths, run_cell
from repro.faults.plan import ChurnAction, FaultPlan, PathChurnEvent
from repro.faults.scenarios import build_chaos_plan
from repro.metrics.recovery import compute_churn_recovery
from repro.net.multipath import PathSet
from repro.net.trace import BandwidthTrace
from repro.rtp.packets import PacketType, RtpPacket
from repro.scheduling.base import (
    DROP_PATH,
    PathSnapshot,
    ProportionalSplitter,
)
from repro.scheduling.converge import ConvergeScheduler
from repro.scheduling.mprtp import MprtpScheduler
from repro.scheduling.mtput import ThroughputScheduler
from repro.scheduling.singlepath import (
    ConnectionMigrationScheduler,
    SinglePathScheduler,
)
from repro.scheduling.srtt import MinRttScheduler
from repro.simulation.simulator import Simulator


def _configs(count=2):
    return constant_paths(
        [8e6] * count, [0.02] * count, [0.0] * count
    )


def _extra_config(path_id):
    from repro.net.path import PathConfig

    return PathConfig(
        path_id=path_id,
        trace=BandwidthTrace.constant(6e6),
        propagation_delay=0.03,
        loss_model=__import__(
            "repro.net.loss", fromlist=["NoLoss"]
        ).NoLoss(),
        name=f"late-{path_id}",
    )


# ---------------------------------------------------------------------------
# PathSet membership


class TestPathSetLifecycle:
    def test_add_and_remove(self):
        sim = Simulator(seed=1)
        paths = PathSet(sim, _configs(2))
        added = paths.add_path(_extra_config(2))
        assert added.path_id == 2
        assert 2 in paths
        assert paths.path_ids == [0, 1, 2]
        removed = paths.remove_path(1)
        assert removed.path_id == 1
        assert paths.path_ids == [0, 2]

    def test_duplicate_id_rejected(self):
        sim = Simulator(seed=1)
        paths = PathSet(sim, _configs(2))
        with pytest.raises(ValueError):
            paths.add_path(_extra_config(1))

    def test_unknown_id_rejected(self):
        sim = Simulator(seed=1)
        paths = PathSet(sim, _configs(2))
        with pytest.raises(KeyError):
            paths.remove_path(9)

    def test_last_path_cannot_be_removed(self):
        sim = Simulator(seed=1)
        paths = PathSet(sim, _configs(1))
        with pytest.raises(ValueError):
            paths.remove_path(0)


# ---------------------------------------------------------------------------
# Pacer and splitter cleanup


class TestPacerDrain:
    def test_drain_returns_queued_packets(self):
        from repro.cc.pacing import Pacer

        sim = Simulator(seed=1)
        sent = []
        pacer = Pacer(sim, lambda pkt, pid: sent.append((pkt, pid)))
        pacer.set_path_rate(0, 1e6)
        packets = [
            RtpPacket(
                ssrc=1, seq=i, timestamp=0, frame_id=0,
                frame_type="delta", packet_type=PacketType.MEDIA,
                payload_size=1200,
            )
            for i in range(5)
        ]
        for packet in packets:
            pacer.enqueue(packet, 0)
        # Nothing released yet (the drain event has not fired).
        leftover = pacer.drain_path(0)
        assert leftover == packets
        assert pacer.queued_packets(0) == 0
        # The cancelled drain event must not fire afterwards.
        sim.run(until=1.0)
        assert sent == []

    def test_drain_unknown_path_is_empty(self):
        from repro.cc.pacing import Pacer

        sim = Simulator(seed=1)
        pacer = Pacer(sim, lambda pkt, pid: None)
        assert pacer.drain_path(7) == []


class TestSplitterForget:
    def test_forget_drops_carry(self):
        splitter = ProportionalSplitter()
        splitter.split(7, [0, 1], [1.0, 2.0])
        assert 0 in splitter._carry or 1 in splitter._carry
        splitter.forget(0)
        splitter.forget(1)
        assert splitter._carry == {}
        # Forgetting an unknown key is a no-op.
        splitter.forget(42)


# ---------------------------------------------------------------------------
# PathManager lifecycle


def _manager(count=2):
    sim = Simulator(seed=1)
    paths = PathSet(sim, _configs(count))
    return sim, paths, PathManager(sim, paths)


def _media_packet(seq):
    return RtpPacket(
        ssrc=1, seq=seq, timestamp=seq * 3000, frame_id=seq // 4,
        frame_type="delta", packet_type=PacketType.MEDIA,
        payload_size=1000,
    )


class TestPathManagerLifecycle:
    def test_add_path_creates_state(self):
        sim, paths, manager = _manager(2)
        paths.add_path(_extra_config(2))
        manager.add_path(2)
        assert manager.has_path(2)
        assert 2 in {
            s.path_id for s in manager.snapshots(10, 1000, now=0.1)
        }

    def test_remove_path_returns_in_flight_seqs(self):
        sim, paths, manager = _manager(2)
        bound = [manager.bind(_media_packet(i), 0, now=0.1) for i in range(4)]
        in_flight = manager.remove_path(0)
        assert in_flight == sorted(p.mp_transport_seq for p in bound)
        assert not manager.has_path(0)

    def test_draining_path_hidden_from_schedulers(self):
        sim, paths, manager = _manager(2)
        manager.begin_drain(1)
        assert manager.is_draining(1)
        assert manager.draining_path_ids() == [1]
        assert {
            s.path_id for s in manager.snapshots(10, 1000, now=0.1)
        } == {0}
        assert 1 not in manager.enabled_path_ids()
        assert 1 not in manager.disabled_path_ids()
        # But the manager still knows the path exists for feedback.
        assert manager.has_path(1)
        assert set(manager.managed_path_ids()) == {0, 1}

    def test_draining_path_excluded_from_aggregate_rate(self):
        sim, paths, manager = _manager(2)
        sim.now = 1.0
        for state in manager._states.values():
            state.last_feedback_time = 0.95  # both paths feedback-live
        full = manager.aggregate_rate()
        manager.begin_drain(1)
        assert manager.aggregate_rate() < full

    def test_all_draining_bootstrap_does_not_raise(self):
        sim, paths, manager = _manager(2)
        manager.begin_drain(0)
        manager.begin_drain(1)
        assert manager.aggregate_rate() > 0.0
        assert manager.effective_aggregate_rate() > 0.0

    def test_feedback_starved_ignores_draining(self):
        sim, paths, manager = _manager(2)
        manager.begin_drain(0)
        manager.begin_drain(1)
        # No live paths -> not "starved", simply empty.
        assert manager.feedback_starved() is False


# ---------------------------------------------------------------------------
# Churn plan validation and canned scenarios


class TestChurnPlan:
    def test_birth_requires_network(self):
        with pytest.raises(ValueError):
            PathChurnEvent(
                action=ChurnAction.BIRTH, path_id=2, time=1.0, network=""
            )

    def test_alternating_birth_death_enforced(self):
        with pytest.raises(ValueError):
            FaultPlan(
                churn=[
                    PathChurnEvent(
                        action=ChurnAction.BIRTH, path_id=2, time=1.0,
                        network="lte",
                    ),
                    PathChurnEvent(
                        action=ChurnAction.BIRTH, path_id=2, time=2.0,
                        network="wifi",
                    ),
                ]
            )

    def test_roundtrip_through_dict(self):
        plan = build_chaos_plan(
            "path-churn", duration=20.0, seed=1, num_paths=2
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.churn == plan.churn
        assert clone.max_churn_time == plan.max_churn_time

    def test_churn_scenarios_scale_with_duration(self):
        for name in ("path-churn", "wifi-lte-migration"):
            plan = build_chaos_plan(name, duration=40.0, seed=1, num_paths=2)
            assert plan.churn, name
            assert plan.max_churn_time <= 40.0, name


class TestHandoverTarget:
    def test_default_target_follows_seed(self):
        plan = build_chaos_plan("handover", duration=30.0, seed=3,
                                num_paths=2)
        assert {e.path_id for e in plan.events} == {3 % 2}
        plan = build_chaos_plan("handover", duration=30.0, seed=4,
                                num_paths=2)
        assert {e.path_id for e in plan.events} == {0}

    def test_explicit_target(self):
        from repro.faults.scenarios import handover

        plan = handover(30.0, seed=0, num_paths=3, target_path=2)
        assert {e.path_id for e in plan.events} == {2}

    def test_out_of_range_target_rejected(self):
        from repro.faults.scenarios import handover

        with pytest.raises(ValueError):
            handover(30.0, seed=0, num_paths=2, target_path=5)


# ---------------------------------------------------------------------------
# Scheduler invariants under arbitrary membership churn (hypothesis)


@st.composite
def churn_script(draw):
    """A sequence of membership mutations plus per-step traffic."""
    steps = draw(st.integers(min_value=1, max_value=6))
    script = []
    for _ in range(steps):
        script.append(
            {
                "op": draw(st.sampled_from(["add", "remove", "hold"])),
                "pick": draw(st.integers(min_value=0, max_value=15)),
                "types": draw(
                    st.lists(
                        st.sampled_from(
                            [
                                PacketType.MEDIA,
                                PacketType.KEYFRAME,
                                PacketType.SPS,
                                PacketType.RETRANSMISSION,
                                PacketType.FEC,
                            ]
                        ),
                        min_size=0,
                        max_size=16,
                    )
                ),
                "srtts": draw(
                    st.lists(
                        st.floats(min_value=0.01, max_value=0.5),
                        min_size=6, max_size=6,
                    )
                ),
                "rates": draw(
                    st.lists(
                        st.floats(min_value=1e5, max_value=3e7),
                        min_size=6, max_size=6,
                    )
                ),
                "enabled": draw(
                    st.lists(st.booleans(), min_size=6, max_size=6)
                ),
            }
        )
    return script


SCHEDULER_FACTORIES = [
    ConvergeScheduler,
    MprtpScheduler,
    ThroughputScheduler,
    MinRttScheduler,
    lambda: SinglePathScheduler(0),
    lambda: ConnectionMigrationScheduler(0),
]
SCHEDULER_IDS = [
    "converge", "mprtp", "mtput", "srtt", "singlepath", "cm",
]


def _packets_of(types, base_seq):
    packets = []
    for offset, packet_type in enumerate(types):
        frame_type = "key" if packet_type is PacketType.KEYFRAME else "delta"
        packets.append(
            RtpPacket(
                ssrc=1,
                seq=base_seq + offset,
                timestamp=(base_seq + offset) * 3000,
                frame_id=(base_seq + offset) // 4,
                frame_type=frame_type,
                packet_type=packet_type,
                payload_size=1000,
            )
        )
    return packets


class TestSchedulersUnderChurn:
    """Eq. 1/2 conservation and priority placement hold across any
    sequence of path additions and removals, for every scheduler."""

    @pytest.mark.parametrize(
        "factory", SCHEDULER_FACTORIES, ids=SCHEDULER_IDS
    )
    @given(script=churn_script())
    @settings(max_examples=30, deadline=None)
    def test_invariants_across_membership_churn(self, factory, script):
        scheduler = factory()
        membership = [0, 1]
        next_id = 2
        seq = 0
        for index, step in enumerate(script):
            if step["op"] == "add" and len(membership) < 6:
                membership.append(next_id)
                scheduler.on_path_added(next_id)
                next_id += 1
            elif step["op"] == "remove" and len(membership) > 1:
                victim = membership.pop(step["pick"] % len(membership))
                scheduler.on_path_removed(victim)

            snapshots = []
            for i, path_id in enumerate(membership):
                snapshots.append(
                    PathSnapshot(
                        path_id=path_id,
                        srtt=step["srtts"][i],
                        loss=0.0,
                        send_rate=step["rates"][i],
                        goodput=step["rates"][i],
                        budget_packets=20,
                        max_packets=20,
                        enabled=step["enabled"][i],
                        degraded=False,
                    )
                )
            if not any(s.enabled for s in snapshots):
                snapshots[0].enabled = True

            packets = _packets_of(step["types"], seq)
            seq += len(packets)
            now = 1.0 + index
            assignments = scheduler.assign(packets, snapshots, now=now)

            live = {s.path_id for s in snapshots}
            enabled = {s.path_id for s in snapshots if s.enabled}
            if isinstance(scheduler, ConnectionMigrationScheduler):
                # CM may black out entirely while reconnecting, but must
                # never address a path outside the current membership.
                assert all(t in live for _, t in assignments)
                assigned = [id(p) for p, _ in assignments]
                assert len(assigned) == len(set(assigned))
            else:
                # Eq. 1/2 conservation: every packet exactly once.
                assert sorted(id(p) for p, _ in assignments) == sorted(
                    id(p) for p in packets
                )
                valid = live | {DROP_PATH}
                assert all(t in valid for _, t in assignments)
            if isinstance(scheduler, ConvergeScheduler):
                # Priority placement survives churn: Table 2 packets
                # ride enabled members whenever one exists.
                for packet, target in assignments:
                    if (
                        packet.is_priority
                        and packet.packet_type is not PacketType.FEC
                    ):
                        assert target in enabled


# ---------------------------------------------------------------------------
# Whole-call survival


DURATION = 6.0


def _migration_cell():
    return make_cell(
        ScenarioPaths("migration"),
        SystemKind.CONVERGE,
        chaos="wifi-lte-migration",
        duration=8.0,
        seed=1,
    )


class TestSessionSurvival:
    def test_survives_death_of_all_paths_but_one(self):
        # Three paths; two die abruptly back to back.  The call must
        # keep rendering on the lone survivor with no exception.
        plan = FaultPlan(
            churn=[
                PathChurnEvent(
                    action=ChurnAction.DEATH, path_id=1, time=2.0
                ),
                PathChurnEvent(
                    action=ChurnAction.DEATH, path_id=2, time=3.0
                ),
            ]
        )
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=DURATION, seed=1),
            _configs(3),
            fault_plan=plan,
        )
        report = compute_churn_recovery(result.metrics, DURATION)
        assert report.session_survived
        assert result.summary.frames_rendered > 0
        rendered_after = [
            f for f in result.metrics.rendered if f.render_time > 3.0
        ]
        assert rendered_after, "no frames rendered after the last death"
        events = [e for _, _, e in result.metrics.churn_events]
        assert events.count("death") == 2
        assert events.count("removed") == 2

    def test_graceful_drain_records_lifecycle(self):
        plan = FaultPlan(
            churn=[
                PathChurnEvent(
                    action=ChurnAction.DRAIN, path_id=1, time=2.0
                )
            ]
        )
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=DURATION, seed=1),
            _configs(2),
            fault_plan=plan,
        )
        events = [e for _, _, e in result.metrics.churn_events]
        assert events == ["drain", "removed"]
        drain_time = result.metrics.churn_events[0][0]
        removed_time = result.metrics.churn_events[1][0]
        # The grace window is bounded: [0.2s, 1.0s] after the drain.
        assert 0.2 <= removed_time - drain_time <= 1.0 + 1e-9

    def test_wifi_lte_migration_survives(self):
        result = run_cell(_migration_cell())
        report = compute_churn_recovery(result.metrics, 8.0)
        assert report.session_survived
        assert report.worst_migration_latency is not None
        assert report.worst_migration_latency < 2.0
        actions = [a for _, _, a in result.metrics.churn_events]
        assert "birth" in actions and "death" in actions
        # Frames keep arriving after WiFi is gone.
        death_time = next(
            t for t, _, a in result.metrics.churn_events if a == "death"
        )
        assert any(
            f.render_time > death_time for f in result.metrics.rendered
        )

    def test_path_churn_scenario_all_systems_survive(self):
        for system in (SystemKind.CONVERGE, SystemKind.SRTT):
            result = run_cell(
                make_cell(
                    ScenarioPaths("migration"), system, chaos="path-churn",
                    duration=10.0, seed=1,
                )
            )
            report = compute_churn_recovery(result.metrics, 10.0)
            assert report.session_survived, system.value

    def test_path_churn_composes_with_foreign_scenario(self):
        # The plan names wifi/lte births from the migration scenario;
        # driving only has tmobile/verizon.  The call must substitute
        # a native profile rather than die mid-run.
        result = run_cell(
            make_cell(
                ScenarioPaths("driving"), SystemKind.CONVERGE,
                chaos="path-churn", duration=10.0, seed=3,
            )
        )
        report = compute_churn_recovery(result.metrics, 10.0)
        assert report.session_survived
        actions = [a for _, _, a in result.metrics.churn_events]
        assert actions.count("birth") == 2

    def test_birth_without_scenario_rejected(self):
        plan = FaultPlan(
            churn=[
                PathChurnEvent(
                    action=ChurnAction.BIRTH, path_id=2, time=2.0,
                    network="lte",
                )
            ]
        )
        with pytest.raises(ValueError):
            run_call(
                build_call_config(
                    SystemKind.CONVERGE, duration=DURATION, seed=1
                ),
                _configs(2),
                fault_plan=plan,
            )

    def test_churn_payload_exported(self):
        from repro.analysis.export import result_to_dict

        payload = result_to_dict(run_cell(_migration_cell()))
        assert payload["churn"]["session_survived"] is True
        assert payload["churn"]["events"]
        # Churn-free payloads must not carry the key at all (golden
        # byte-compatibility).
        plain = run_call(
            build_call_config(SystemKind.CONVERGE, duration=2.0, seed=1),
            _configs(2),
        )
        assert "churn" not in result_to_dict(plain)
