"""Tests for NACK generation and receiver-side FEC tracking."""

import random

import pytest

from repro.receiver.fec_tracker import FecTracker
from repro.receiver.nack import NackConfig, NackGenerator
from repro.simulation import Simulator


class NackHarness:
    def __init__(self, **config):
        self.sim = Simulator()
        self.sent = []
        self.nack = NackGenerator(
            self.sim,
            ssrc=1,
            send_nack=lambda seqs: self.sent.append((self.sim.now, list(seqs))),
            config=NackConfig(**config),
        )


class TestNackGenerator:
    def test_gap_triggers_nack_after_reorder_window(self):
        h = NackHarness(reorder_window=0.05)
        h.nack.on_packet(10)
        h.nack.on_packet(13)  # 11, 12 missing
        h.sim.run(until=0.2)
        assert h.sent
        time, seqs = h.sent[0]
        assert time >= 0.05
        assert seqs == [11, 12]

    def test_reordered_packet_cancels_nack(self):
        h = NackHarness(reorder_window=0.1)
        h.nack.on_packet(10)
        h.nack.on_packet(12)
        h.sim.schedule(0.02, lambda: h.nack.on_packet(11))
        h.sim.run(until=0.5)
        assert h.sent == []

    def test_retries_until_limit(self):
        h = NackHarness(reorder_window=0.02, retry_interval=0.1,
                        max_retries=2, give_up_after=10.0)
        h.nack.on_packet(0)
        h.nack.on_packet(2)
        h.sim.run(until=2.0)
        # initial + retries until retries exceeds max
        assert 2 <= len(h.sent) <= 3

    def test_gives_up_after_deadline(self):
        h = NackHarness(reorder_window=0.02, retry_interval=0.05,
                        give_up_after=0.3, max_retries=100)
        h.nack.on_packet(0)
        h.nack.on_packet(2)
        h.sim.run(until=2.0)
        assert all(t < 0.4 for t, _ in h.sent)
        assert h.nack.outstanding == 0

    def test_huge_gap_treated_as_reset(self):
        h = NackHarness(max_gap=100)
        h.nack.on_packet(0)
        h.nack.on_packet(5000)
        h.sim.run(until=1.0)
        assert h.sent == []

    def test_overflow_clears_oldest(self):
        h = NackHarness(max_outstanding=50)
        h.nack.on_packet(0)
        h.nack.on_packet(200)  # 199 missing
        assert h.nack.outstanding <= 50

    def test_adaptive_window_widens_on_false_nack(self):
        h = NackHarness(reorder_window=0.03, max_reorder_window=0.25)
        base = h.nack.reorder_window
        h.nack.on_packet(0)
        h.nack.on_packet(2)
        h.sim.run(until=0.1)  # NACK sent
        assert h.sent
        h.nack.on_packet(1)  # ...but it was just reordered
        assert h.nack.reorder_window > base
        assert h.nack.false_nacks == 1

    def test_window_bounded(self):
        h = NackHarness(reorder_window=0.03, max_reorder_window=0.2)
        for i in range(20):
            h.nack.on_packet(3 * i)
            h.nack.on_packet(3 * i + 2)
            h.sim.run(until=h.sim.now + 0.3)
            h.nack.on_packet(3 * i + 1)
        assert h.nack.reorder_window <= 0.2


class TestFecTracker:
    def test_recovery_when_fec_arrives_last(self):
        tracker = FecTracker()
        tracker.on_media_packet(1)
        tracker.on_media_packet(3)  # 2 lost
        recovered = tracker.on_fec_packet(1000, [1, 2, 3])
        assert recovered == 2
        assert tracker.stats.recoveries == 1

    def test_recovery_when_media_arrives_last(self):
        tracker = FecTracker()
        tracker.on_media_packet(1)
        assert tracker.on_fec_packet(1000, [1, 2, 3]) is None
        recovered = tracker.on_media_packet(3)
        assert recovered == 2

    def test_no_recovery_for_double_loss(self):
        tracker = FecTracker()
        tracker.on_media_packet(1)
        assert tracker.on_fec_packet(1000, [1, 2, 3, 4]) is None
        assert tracker.stats.recoveries == 0

    def test_utilization_statistic(self):
        tracker = FecTracker()
        # useless FEC: everything arrived
        for seq in (1, 2):
            tracker.on_media_packet(seq)
        tracker.on_fec_packet(1000, [1, 2])
        # useful FEC
        tracker.on_media_packet(10)
        tracker.on_fec_packet(1001, [10, 11])
        assert tracker.stats.fec_received == 2
        assert tracker.stats.recoveries == 1
        assert tracker.stats.utilization == 0.5

    def test_groups_expire(self):
        tracker = FecTracker(max_groups=4)
        for i in range(10):
            tracker.on_fec_packet(1000 + i, [10 * i, 10 * i + 1])
        assert tracker.active_groups <= 4

    def test_groups_expire_oldest_first_whatever_the_arrival_order(self):
        tracker = FecTracker()  # 256 groups
        seqs = list(range(1000, 1300))
        random.Random(7).shuffle(seqs)
        expired = []
        for fec_seq in seqs:
            before = set(tracker._groups)
            tracker.on_fec_packet(fec_seq, [10 * fec_seq, 10 * fec_seq + 1])
            gone = (before | {fec_seq}) - set(tracker._groups)
            assert gone <= {min(before | {fec_seq})}
            expired.extend(gone)
        assert len(expired) == 300 - 256
        assert tracker.active_groups == 256
        # An expired seq that turns up again registers afresh; older
        # than everything tracked, it is what its own registration
        # expires, and heap and dict still name the same groups.
        again = expired[0]
        assert again < min(tracker._groups)
        tracker.on_fec_packet(again, [10 * again, 10 * again + 1])
        assert again not in tracker._groups
        assert sorted(tracker._expiry) == sorted(tracker._groups)
        assert not any(
            again in fecs for fecs in tracker._seq_to_groups.values()
        )

    def test_duplicate_media_harmless(self):
        tracker = FecTracker()
        tracker.on_media_packet(1)
        tracker.on_media_packet(1)
        recovered = tracker.on_fec_packet(1000, [1, 2])
        assert recovered == 2
