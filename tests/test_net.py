"""Tests for the network emulation substrate."""

import pytest

from repro.net import (
    BandwidthTrace,
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    Path,
    PathConfig,
    PathSet,
)
from repro.simulation import Simulator


class FakePacket:
    def __init__(self, size_bytes=1200):
        self.size_bytes = size_bytes


class TestBandwidthTrace:
    def test_constant(self):
        trace = BandwidthTrace.constant(5e6)
        assert trace.capacity_at(0.0) == 5e6
        assert trace.capacity_at(100.0) == 5e6

    def test_step_function(self):
        trace = BandwidthTrace([(0.0, 1e6), (10.0, 2e6)])
        assert trace.capacity_at(5.0) == 1e6
        assert trace.capacity_at(10.0) == 2e6
        assert trace.capacity_at(50.0) == 2e6

    def test_anchors_at_zero(self):
        trace = BandwidthTrace([(5.0, 3e6)])
        assert trace.capacity_at(0.0) == 3e6

    def test_loop_wraps(self):
        trace = BandwidthTrace([(0.0, 1e6), (5.0, 2e6), (10.0, 1e6)], loop=True)
        assert trace.capacity_at(12.0) == trace.capacity_at(2.0)
        assert trace.capacity_at(17.0) == trace.capacity_at(7.0)

    def test_scaled(self):
        trace = BandwidthTrace([(0.0, 1e6), (5.0, 2e6)]).scaled(2.0)
        assert trace.capacity_at(0.0) == 2e6
        assert trace.capacity_at(6.0) == 4e6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BandwidthTrace([])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            BandwidthTrace([(0.0, -1.0)])

    def test_rejects_negative_time_lookup(self):
        trace = BandwidthTrace.constant(1e6)
        with pytest.raises(ValueError):
            trace.capacity_at(-1.0)


class TestLossModels:
    def test_no_loss_never_drops(self):
        sim = Simulator(seed=1)
        rng = sim.streams.stream("x")
        model = NoLoss()
        assert not any(model.should_drop(rng) for _ in range(1000))
        assert model.long_run_rate() == 0.0

    def test_bernoulli_rate_is_respected(self):
        sim = Simulator(seed=1)
        rng = sim.streams.stream("x")
        model = BernoulliLoss(0.1)
        drops = sum(model.should_drop(rng) for _ in range(20000))
        assert 0.08 < drops / 20000 < 0.12
        assert model.long_run_rate() == 0.1

    def test_bernoulli_validates(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)

    def test_gilbert_elliott_long_run_rate(self):
        model = GilbertElliottLoss(
            p_good_to_bad=0.01, p_bad_to_good=0.1, good_loss=0.0, bad_loss=0.3
        )
        sim = Simulator(seed=3)
        rng = sim.streams.stream("x")
        n = 200_000
        drops = sum(model.should_drop(rng) for _ in range(n))
        expected = model.long_run_rate()
        assert drops / n == pytest.approx(expected, rel=0.2)

    def test_gilbert_elliott_is_bursty(self):
        """Loss runs should be longer than under Bernoulli at the
        same average rate."""
        sim = Simulator(seed=4)
        rng = sim.streams.stream("x")
        model = GilbertElliottLoss(
            p_good_to_bad=0.002, p_bad_to_good=0.05, bad_loss=0.5
        )
        outcomes = [model.should_drop(rng) for _ in range(100_000)]
        # count adjacent loss pairs
        pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        rate = sum(outcomes) / len(outcomes)
        bernoulli_pairs = rate * rate * len(outcomes)
        assert pairs > 3 * bernoulli_pairs

    def test_gilbert_elliott_validates(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=2.0)


class TestPath:
    def _make_path(self, sim, bps=8e6, delay=0.02, queue=256_000, loss=None):
        config = PathConfig(
            path_id=0,
            trace=BandwidthTrace.constant(bps),
            propagation_delay=delay,
            loss_model=loss or NoLoss(),
            queue_capacity_bytes=queue,
            jitter_max=0.0,
        )
        return Path(sim, config)

    def test_delivery_includes_serialization_and_propagation(self):
        sim = Simulator(seed=1)
        path = self._make_path(sim, bps=1e6, delay=0.05)
        delivered = []
        path.on_deliver = lambda pkt: delivered.append(sim.now)
        packet = FakePacket(size_bytes=1250)  # 10 ms at 1 Mbps
        path.send(packet)
        sim.run()
        assert delivered[0] == pytest.approx(0.05 + 0.01, abs=1e-6)

    def test_fifo_order(self):
        sim = Simulator(seed=1)
        path = self._make_path(sim)
        order = []
        path.on_deliver = lambda pkt: order.append(pkt.tag)
        for i in range(10):
            packet = FakePacket()
            packet.tag = i
            path.send(packet)
        sim.run()
        assert order == list(range(10))

    def test_queue_overflow_drops(self):
        sim = Simulator(seed=1)
        path = self._make_path(sim, bps=1e6, queue=5000)
        delivered = []
        path.on_deliver = lambda pkt: delivered.append(pkt)
        for _ in range(10):
            path.send(FakePacket(1200))
        sim.run()
        assert path.stats.queue_drops > 0
        assert len(delivered) + path.stats.queue_drops == 10

    def test_random_loss_counted(self):
        sim = Simulator(seed=1)
        path = self._make_path(sim, loss=BernoulliLoss(1.0))
        delivered = []
        path.on_deliver = lambda pkt: delivered.append(pkt)
        path.send(FakePacket())
        sim.run()
        assert delivered == []
        assert path.stats.random_losses == 1
        assert path.stats.loss_rate == 1.0

    def test_outage_holds_packets_until_capacity_returns(self):
        sim = Simulator(seed=1)
        trace = BandwidthTrace([(0.0, 0.0), (1.0, 1e6)])
        config = PathConfig(
            path_id=0, trace=trace, propagation_delay=0.0, jitter_max=0.0
        )
        path = Path(sim, config)
        delivered = []
        path.on_deliver = lambda pkt: delivered.append(sim.now)
        path.send(FakePacket(1250))
        sim.run(until=5.0)
        assert len(delivered) == 1
        assert delivered[0] >= 1.0

    def test_feedback_channel_delivers_with_delay(self):
        sim = Simulator(seed=1)
        path = self._make_path(sim, delay=0.03)
        got = []
        path.on_feedback_deliver = lambda msg: got.append((msg, sim.now))
        path.send_feedback("report")
        sim.run()
        assert got[0][0] == "report"
        assert got[0][1] == pytest.approx(0.03, abs=1e-6)

    def test_throughput_bounded_by_capacity(self):
        sim = Simulator(seed=1)
        path = self._make_path(sim, bps=2e6, queue=10_000_000)
        delivered_bytes = []
        path.on_deliver = lambda pkt: delivered_bytes.append(pkt.size_bytes)
        for _ in range(1000):
            path.send(FakePacket(1200))
        sim.run(until=2.0)
        rate = sum(delivered_bytes) * 8 / 2.0
        assert rate <= 2e6 * 1.02


class TestPathSet:
    def test_requires_unique_ids(self):
        sim = Simulator()
        config = PathConfig(path_id=0, trace=BandwidthTrace.constant(1e6))
        with pytest.raises(ValueError):
            PathSet(sim, [config, PathConfig(path_id=0, trace=BandwidthTrace.constant(1e6))])

    def test_requires_at_least_one(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PathSet(sim, [])

    def test_lookup_and_iteration(self):
        sim = Simulator()
        configs = [
            PathConfig(path_id=i, trace=BandwidthTrace.constant(1e6))
            for i in range(3)
        ]
        paths = PathSet(sim, configs)
        assert len(paths) == 3
        assert paths.path_ids == [0, 1, 2]
        assert paths.get(1).path_id == 1
        assert 2 in paths
        assert paths.total_capacity_now() == pytest.approx(3e6)
