"""Tests for all packet schedulers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rtp.packets import FRAME_TYPE_DELTA, FRAME_TYPE_KEY, PacketType, RtpPacket
from repro.scheduling import (
    ConnectionMigrationScheduler,
    ConvergeScheduler,
    MinRttScheduler,
    MprtpScheduler,
    PathSnapshot,
    SinglePathScheduler,
    ThroughputScheduler,
)
from repro.scheduling.base import DROP_PATH, ProportionalSplitter, split_proportionally


def snapshot(path_id, srtt=0.05, loss=0.0, rate=5e6, goodput=5e6,
             budget=100, max_packets=100, enabled=True, feedback_age=0.1):
    return PathSnapshot(
        path_id=path_id,
        srtt=srtt,
        loss=loss,
        send_rate=rate,
        goodput=goodput,
        budget_packets=budget,
        max_packets=max_packets,
        enabled=enabled,
        last_feedback_age=feedback_age,
    )


def media_packet(seq, packet_type=PacketType.MEDIA, frame_type=FRAME_TYPE_DELTA):
    return RtpPacket(
        ssrc=1,
        seq=seq,
        timestamp=0,
        frame_id=0,
        frame_type=frame_type,
        packet_type=packet_type,
        payload_size=1200,
    )


def make_round(num_media=10, priorities=()):
    packets = [media_packet(i) for i in range(num_media)]
    for i, packet_type in enumerate(priorities):
        frame_type = (
            FRAME_TYPE_KEY
            if packet_type in (PacketType.KEYFRAME, PacketType.SPS)
            else FRAME_TYPE_DELTA
        )
        packets.append(
            media_packet(100 + i, packet_type=packet_type, frame_type=frame_type)
        )
    return packets


class TestSplitHelpers:
    @given(
        st.integers(min_value=0, max_value=500),
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6),
    )
    def test_split_conserves_total(self, total, weights):
        parts = split_proportionally(total, weights)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)

    def test_split_proportions(self):
        assert split_proportionally(30, [2.0, 1.0]) == [20, 10]

    def test_splitter_carry_prevents_starvation(self):
        """A 5% path must receive ~5% over many rounds, not zero."""
        splitter = ProportionalSplitter()
        totals = [0, 0]
        for _ in range(100):
            parts = splitter.split(10, ["a", "b"], [0.95, 0.05])
            totals[0] += parts[0]
            totals[1] += parts[1]
        assert totals[1] == pytest.approx(50, abs=5)

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=50)
    )
    def test_splitter_conserves_each_round(self, rounds):
        splitter = ProportionalSplitter()
        for total in rounds:
            parts = splitter.split(total, ["a", "b", "c"], [3.0, 2.0, 1.0])
            assert sum(parts) == total


def assert_complete_assignment(packets, assignments, allow_drops=False):
    assigned = [id(p) for p, _ in assignments]
    assert sorted(assigned) == sorted(id(p) for p in packets)
    if not allow_drops:
        assert all(path_id != DROP_PATH for _, path_id in assignments)


class TestConvergeScheduler:
    def test_every_packet_assigned_once(self):
        scheduler = ConvergeScheduler()
        packets = make_round(20, [PacketType.SPS, PacketType.PPS])
        paths = [snapshot(0), snapshot(1, srtt=0.1)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        assert_complete_assignment(packets, assignments)

    def test_priority_packets_on_fast_path(self):
        scheduler = ConvergeScheduler()
        packets = make_round(0, [PacketType.KEYFRAME, PacketType.SPS, PacketType.PPS])
        fast = snapshot(0, srtt=0.02, goodput=10e6, rate=10e6)
        slow = snapshot(1, srtt=0.2, goodput=1e6, rate=1e6)
        assignments = scheduler.assign(packets, [slow, fast], now=0.0)
        assert all(path_id == 0 for _, path_id in assignments)

    def test_fast_path_by_completion_time_not_rtt_alone(self):
        """Algorithm 1: a high-rate path can beat a low-RTT path for
        large bursts."""
        scheduler = ConvergeScheduler()
        packets = make_round(0, [PacketType.KEYFRAME] * 40)
        low_rtt_slow = snapshot(0, srtt=0.01, goodput=1e6, rate=1e6)
        high_rtt_fast = snapshot(1, srtt=0.08, goodput=20e6, rate=20e6)
        assignments = scheduler.assign(packets, [low_rtt_slow, high_rtt_fast], 0.0)
        target_counts = {}
        for _, path_id in assignments:
            target_counts[path_id] = target_counts.get(path_id, 0) + 1
        assert target_counts.get(1, 0) > target_counts.get(0, 0)

    def test_media_follows_budgets(self):
        scheduler = ConvergeScheduler()
        packets = make_round(10)
        paths = [
            snapshot(0, budget=7, max_packets=20),
            snapshot(1, budget=3, max_packets=20, srtt=0.1),
        ]
        assignments = scheduler.assign(packets, paths, now=0.0)
        counts = {0: 0, 1: 0}
        for _, path_id in assignments:
            counts[path_id] += 1
        assert counts[0] == 7
        assert counts[1] == 3

    def test_disabled_path_gets_no_media(self):
        scheduler = ConvergeScheduler()
        packets = make_round(10)
        paths = [
            snapshot(0, budget=20, max_packets=30),
            snapshot(1, enabled=False, budget=0),
        ]
        assignments = scheduler.assign(packets, paths, now=0.0)
        assert all(path_id == 0 for _, path_id in assignments)

    def test_sheds_when_all_paths_at_pmax(self):
        scheduler = ConvergeScheduler()
        packets = make_round(30)
        paths = [
            snapshot(0, budget=5, max_packets=5),
            snapshot(1, budget=5, max_packets=5, srtt=0.1),
        ]
        assignments = scheduler.assign(packets, paths, now=0.0)
        dropped = [p for p, path_id in assignments if path_id == DROP_PATH]
        assert len(dropped) == 20

    def test_priority_never_shed(self):
        scheduler = ConvergeScheduler()
        packets = make_round(0, [PacketType.KEYFRAME] * 40)
        paths = [snapshot(0, budget=2, max_packets=2)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        assert all(path_id != DROP_PATH for _, path_id in assignments)

    def test_converge_fec_stays_on_generation_path(self):
        scheduler = ConvergeScheduler()
        fec = media_packet(0, packet_type=PacketType.FEC)
        fec.path_id = 1
        assignments = scheduler.assign([fec], [snapshot(0), snapshot(1)], 0.0)
        assert assignments[0][1] == 1

    def test_uses_qoe_feedback(self):
        assert ConvergeScheduler().uses_qoe_feedback

    def test_empty_round(self):
        assert ConvergeScheduler().assign([], [snapshot(0)], 0.0) == []


class TestMinRttScheduler:
    def test_prefers_min_rtt(self):
        scheduler = MinRttScheduler()
        packets = make_round(5)
        paths = [snapshot(0, srtt=0.2), snapshot(1, srtt=0.02)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        assert all(path_id == 1 for _, path_id in assignments)

    def test_overflows_to_next_path(self):
        scheduler = MinRttScheduler()
        packets = make_round(10)
        paths = [
            snapshot(0, srtt=0.02, max_packets=4),
            snapshot(1, srtt=0.1, max_packets=100),
        ]
        assignments = scheduler.assign(packets, paths, now=0.0)
        counts = {0: 0, 1: 0}
        for _, path_id in assignments:
            counts[path_id] += 1
        assert counts == {0: 4, 1: 6}

    def test_no_video_awareness(self):
        """Keyframe packets are treated like any other packet."""
        scheduler = MinRttScheduler()
        packets = make_round(3, [PacketType.KEYFRAME])
        paths = [snapshot(0, srtt=0.02, max_packets=2), snapshot(1, srtt=0.1)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        by_id = {id(p): path_id for p, path_id in assignments}
        keyframe = packets[-1]
        # assigned in arrival order, so the keyframe lands wherever the
        # fill pointer is — path 1 here.
        assert by_id[id(keyframe)] == 1


class TestThroughputScheduler:
    def test_split_tracks_goodput(self):
        scheduler = ThroughputScheduler()
        packets = make_round(100)
        paths = [
            snapshot(0, goodput=9e6),
            snapshot(1, goodput=3e6),
        ]
        assignments = scheduler.assign(packets, paths, now=0.0)
        counts = {0: 0, 1: 0}
        for _, path_id in assignments:
            counts[path_id] += 1
        assert counts[0] == pytest.approx(75, abs=5)

    def test_interleaves(self):
        scheduler = ThroughputScheduler()
        packets = make_round(10)
        paths = [snapshot(0, goodput=5e6), snapshot(1, goodput=5e6)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        sequence = [path_id for _, path_id in assignments]
        # alternating, not two contiguous runs
        switches = sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)
        assert switches >= 5


class TestMprtpScheduler:
    def test_even_split_regardless_of_rate(self):
        scheduler = MprtpScheduler()
        packets = make_round(100)
        paths = [
            snapshot(0, rate=20e6, goodput=20e6),
            snapshot(1, rate=1e6, goodput=1e6),
        ]
        assignments = scheduler.assign(packets, paths, now=0.0)
        counts = {0: 0, 1: 0}
        for _, path_id in assignments:
            counts[path_id] += 1
        assert counts[1] == pytest.approx(50, abs=2)

    def test_loss_discounts_share(self):
        scheduler = MprtpScheduler()
        packets = make_round(100)
        paths = [snapshot(0, loss=0.0), snapshot(1, loss=0.5)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        counts = {0: 0, 1: 0}
        for _, path_id in assignments:
            counts[path_id] += 1
        assert counts[0] > counts[1]

    def test_uses_disabled_paths_too(self):
        scheduler = MprtpScheduler()
        packets = make_round(10)
        paths = [snapshot(0), snapshot(1, enabled=False)]
        assignments = scheduler.assign(packets, paths, now=0.0)
        assert any(path_id == 1 for _, path_id in assignments)


class TestSinglePath:
    def test_pins_to_configured_path(self):
        scheduler = SinglePathScheduler(1)
        packets = make_round(5)
        assignments = scheduler.assign(packets, [snapshot(0), snapshot(1)], 0.0)
        assert all(path_id == 1 for _, path_id in assignments)


class TestConnectionMigration:
    def test_stays_on_healthy_path(self):
        scheduler = ConnectionMigrationScheduler(0, failure_timeout=2.0)
        packets = make_round(5)
        paths = [snapshot(0, feedback_age=0.1), snapshot(1, feedback_age=0.1)]
        assignments = scheduler.assign(packets, paths, now=10.0)
        assert all(path_id == 0 for _, path_id in assignments)
        assert scheduler.migrations == 0

    def test_migrates_on_silence(self):
        scheduler = ConnectionMigrationScheduler(
            0, failure_timeout=2.0, reconnect_delay=1.5
        )
        packets = make_round(5)
        paths = [snapshot(0, feedback_age=5.0), snapshot(1, feedback_age=0.1)]
        # Detection round: nothing is sent, migration starts.
        assert scheduler.assign(packets, paths, now=10.0) == []
        assert scheduler.migrations == 1
        assert scheduler.active_path_id == 1
        # During reconnection: still nothing.
        assert scheduler.assign(packets, paths, now=11.0) == []
        # After reconnection: flows on the new path.
        assignments = scheduler.assign(packets, paths, now=12.0)
        assert all(path_id == 1 for _, path_id in assignments)
