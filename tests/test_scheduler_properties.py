"""Property-based tests for the scheduler invariants (hypothesis).

Three families of invariants, fuzzed over random frames and path
states rather than hand-picked examples:

- *Conservation* (Eq. 1/2): the proportional splitters hand out
  exactly the frame's packet count, never a negative share, and every
  scheduler assigns every packet exactly once.
- *Priority placement* (Table 2 / Algorithm 1): priority packets ride
  enabled paths whenever one exists, and healthy paths outrank
  feedback-degraded ones.
- *Eq. 3 re-enable*: a disabled path comes back only with fresh
  feedback whose extra one-way delay fits inside the tolerated frame
  construction delay, or via the blind-probe backoff timeout.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WATCHDOG_REENABLE_BACKOFF_INITIAL
from repro.core.path_manager import PathManager
from repro.net.multipath import PathSet
from repro.rtp.packets import PacketType, RtpPacket
from repro.scheduling.base import (
    DROP_PATH,
    PathSnapshot,
    ProportionalSplitter,
    split_exact,
    split_proportionally,
)
from repro.scheduling.converge import ConvergeScheduler
from repro.scheduling.mprtp import MprtpScheduler
from repro.scheduling.mtput import ThroughputScheduler
from repro.scheduling.singlepath import SinglePathScheduler
from repro.scheduling.srtt import MinRttScheduler
from repro.simulation.simulator import Simulator
from repro.experiments.common import constant_paths

# -- strategies -------------------------------------------------------------

weights_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e8, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=6,
)

packet_type_strategy = st.sampled_from(
    [
        PacketType.MEDIA,
        PacketType.KEYFRAME,
        PacketType.SPS,
        PacketType.PPS,
        PacketType.RETRANSMISSION,
        PacketType.FEC,
    ]
)


@st.composite
def packets_strategy(draw, min_size=0, max_size=24):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    packets = []
    for seq in range(count):
        packet_type = draw(packet_type_strategy)
        frame_type = (
            "key" if packet_type is PacketType.KEYFRAME else "delta"
        )
        packets.append(
            RtpPacket(
                ssrc=draw(st.integers(min_value=0, max_value=3)),
                seq=seq,
                timestamp=seq * 3000,
                frame_id=seq // 4,
                frame_type=frame_type,
                packet_type=packet_type,
                payload_size=draw(st.integers(min_value=1, max_value=1200)),
            )
        )
    return packets


@st.composite
def snapshot_strategy(draw, path_id, enabled=None):
    if enabled is None:
        enabled = draw(st.booleans())
    return PathSnapshot(
        path_id=path_id,
        srtt=draw(st.floats(min_value=0.001, max_value=2.0)),
        loss=draw(st.floats(min_value=0.0, max_value=0.5)),
        send_rate=draw(st.floats(min_value=1e4, max_value=5e7)),
        goodput=draw(st.floats(min_value=0.0, max_value=5e7)),
        budget_packets=draw(st.integers(min_value=0, max_value=30)),
        max_packets=draw(st.integers(min_value=1, max_value=30)),
        enabled=enabled,
        degraded=draw(st.booleans()),
    )


@st.composite
def paths_strategy(draw, min_size=1, max_size=4, ensure_enabled=False):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    paths = [draw(snapshot_strategy(path_id)) for path_id in range(count)]
    if ensure_enabled and not any(p.enabled for p in paths):
        index = draw(st.integers(min_value=0, max_value=count - 1))
        paths[index].enabled = True
    return paths


MULTIPATH_SCHEDULERS = [
    ConvergeScheduler,
    MprtpScheduler,
    ThroughputScheduler,
    MinRttScheduler,
]


# -- Eq. 1 conservation -----------------------------------------------------


class TestSplitConservation:
    @given(total=st.integers(min_value=0, max_value=500),
           weights=weights_strategy)
    def test_split_proportionally_sums_to_total(self, total, weights):
        parts = split_proportionally(total, weights)
        assert sum(parts) == total
        assert all(part >= 0 for part in parts)
        assert len(parts) == len(weights)

    @given(total=st.integers(min_value=0, max_value=500),
           weights=weights_strategy)
    def test_split_exact_sums_to_total(self, total, weights):
        exact = split_exact(total, weights)
        assert math.isclose(sum(exact), total, abs_tol=1e-6)
        assert all(share >= 0 for share in exact)

    @given(
        totals=st.lists(st.integers(min_value=0, max_value=60),
                        min_size=1, max_size=30),
        weights=weights_strategy,
    )
    def test_stateful_splitter_conserves_every_round(self, totals, weights):
        # The fractional-carry splitter must hand out exactly the
        # round's total each round, across any run of rounds.
        splitter = ProportionalSplitter()
        keys = list(range(len(weights)))
        for total in totals:
            parts = splitter.split(total, keys, weights)
            assert sum(parts) == total
            assert all(part >= 0 for part in parts)


# -- every packet assigned exactly once -------------------------------------


class TestAssignmentCoverage:
    @given(packets=packets_strategy(), paths=paths_strategy())
    @settings(max_examples=60)
    def test_converge_covers_every_packet(self, packets, paths):
        assignments = ConvergeScheduler().assign(packets, paths, now=1.0)
        assert sorted(id(p) for p, _ in assignments) == sorted(
            id(p) for p in packets
        )
        valid = {p.path_id for p in paths} | {DROP_PATH}
        assert all(target in valid for _, target in assignments)

    @given(packets=packets_strategy(), paths=paths_strategy())
    @settings(max_examples=40)
    def test_baselines_cover_every_packet(self, packets, paths):
        for scheduler_cls in (MprtpScheduler, ThroughputScheduler,
                              MinRttScheduler):
            assignments = scheduler_cls().assign(packets, paths, now=1.0)
            assert sorted(id(p) for p, _ in assignments) == sorted(
                id(p) for p in packets
            ), scheduler_cls.__name__
            valid = {p.path_id for p in paths}
            assert all(
                target in valid for _, target in assignments
            ), scheduler_cls.__name__

    @given(packets=packets_strategy(), paths=paths_strategy(min_size=2))
    @settings(max_examples=20)
    def test_single_path_stays_on_its_path(self, packets, paths):
        scheduler = SinglePathScheduler(paths[0].path_id)
        assignments = scheduler.assign(packets, paths, now=1.0)
        assert len(assignments) == len(packets)
        assert all(target == paths[0].path_id for _, target in assignments)

    @given(packets=packets_strategy(min_size=1), paths=paths_strategy())
    @settings(max_examples=60)
    def test_converge_never_drops_priority_packets(self, packets, paths):
        assignments = ConvergeScheduler().assign(packets, paths, now=1.0)
        for packet, target in assignments:
            if packet.is_priority:
                assert target != DROP_PATH


# -- priority placement -----------------------------------------------------


class TestPriorityPlacement:
    @given(
        packets=packets_strategy(min_size=1),
        paths=paths_strategy(min_size=2, ensure_enabled=True),
    )
    @settings(max_examples=80)
    def test_priority_packets_ride_enabled_paths(self, packets, paths):
        # Table 2 packets must never be scheduled onto a disabled path
        # while any enabled path exists (disabled paths only carry
        # probe duplicates, injected by the path manager, not media).
        assignments = ConvergeScheduler().assign(packets, paths, now=1.0)
        enabled_ids = {p.path_id for p in paths if p.enabled}
        for packet, target in assignments:
            if packet.is_priority and packet.packet_type is not PacketType.FEC:
                assert target in enabled_ids

    @given(
        packets=packets_strategy(min_size=1),
        paths=paths_strategy(min_size=2, ensure_enabled=True),
    )
    @settings(max_examples=80)
    def test_media_stays_off_disabled_paths(self, packets, paths):
        assignments = ConvergeScheduler().assign(packets, paths, now=1.0)
        enabled_ids = {p.path_id for p in paths if p.enabled}
        for packet, target in assignments:
            if packet.packet_type is PacketType.MEDIA and target != DROP_PATH:
                assert target in enabled_ids

    @given(packets=packets_strategy(min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_priority_prefers_healthy_over_degraded(self, packets):
        # Two enabled paths, identical except one is feedback-degraded
        # and nominally faster: priority packets must still pick the
        # healthy path (the degraded path's stats are stale lies).
        healthy = PathSnapshot(
            path_id=0, srtt=0.08, loss=0.0, send_rate=5e6, goodput=5e6,
            budget_packets=50, max_packets=50, enabled=True, degraded=False,
        )
        degraded = PathSnapshot(
            path_id=1, srtt=0.01, loss=0.0, send_rate=50e6, goodput=50e6,
            budget_packets=50, max_packets=50, enabled=True, degraded=True,
        )
        assignments = ConvergeScheduler().assign(
            packets, [healthy, degraded], now=1.0
        )
        for packet, target in assignments:
            if packet.is_priority and packet.packet_type is not PacketType.FEC:
                assert target == healthy.path_id


# -- Eq. 3 re-enable --------------------------------------------------------


def _manager(num_paths=2):
    sim = Simulator(seed=1)
    configs = constant_paths(
        [10e6] * num_paths, [0.02] * num_paths, [0.0] * num_paths
    )
    paths = PathSet(sim, configs)
    manager = PathManager(sim, paths)
    return sim, manager


def _disable(manager, path_id, now, backoff=10.0):
    state = manager._states[path_id]
    state.enabled = False
    state.disabled_at = now
    state.reenable_backoff = backoff
    return state


class TestEq3Reenable:
    @given(
        extra_rtt=st.floats(min_value=0.0, max_value=1.0),
        fcd=st.floats(min_value=0.0, max_value=0.5),
        feedback_age=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=100)
    def test_reenable_requires_fresh_feedback_and_delay_fit(
        self, extra_rtt, fcd, feedback_age
    ):
        sim, manager = _manager()
        now = 100.0
        sim.now = now
        fast = manager._states[0]
        fast.gcc.srtt = 0.05
        fast.last_feedback_time = now - 0.01

        state = _disable(manager, 1, now - 1.0, backoff=10.0)
        state.gcc.srtt = fast.gcc.srtt + extra_rtt
        state.last_feedback_time = now - feedback_age
        manager.last_fcd = fcd

        manager._update_enablement(now)

        # Expectation computed with the same float expressions the
        # manager uses (now - last_feedback_time, srtt difference), so
        # boundary examples cannot flake on rounding.
        fresh = now - state.last_feedback_time < 0.5
        fits = (state.gcc.srtt - fast.gcc.srtt) / 2 <= max(
            manager.last_fcd, 0.02
        )
        expected = fresh and fits  # backoff (10s) cannot fire at 1s
        assert state.enabled == expected

    @given(
        waited=st.floats(min_value=0.0, max_value=40.0),
        backoff=st.floats(min_value=0.5, max_value=20.0),
    )
    @settings(max_examples=60)
    def test_backoff_timeout_reenables_blindly(self, waited, backoff):
        sim, manager = _manager()
        now = 100.0
        sim.now = now
        manager._states[0].last_feedback_time = now - 0.01

        disabled_at = now - waited
        state = _disable(manager, 1, disabled_at, backoff=backoff)
        state.gcc.srtt = 10.0  # Eq. 3 can never pass on its own
        state.last_feedback_time = -1.0
        manager.last_fcd = 0.0

        manager._update_enablement(now)
        # Expectation computed with the same float expression the
        # manager uses, so boundary examples cannot flake on rounding.
        assert state.enabled == (now - disabled_at > backoff)

    def test_reenable_resets_adjustment_and_backoff(self):
        sim, manager = _manager()
        now = 50.0
        sim.now = now
        manager._states[0].gcc.srtt = 0.05
        manager._states[0].last_feedback_time = now - 0.01

        state = _disable(manager, 1, now - 1.0)
        state.gcc.srtt = 0.05  # no extra delay
        state.last_feedback_time = now - 0.1  # fresh probe feedback
        state.adjust = -50.0
        state.reenable_backoff = 40.0
        manager.last_fcd = 0.1

        manager._update_enablement(now)
        assert state.enabled
        assert state.adjust == 0.0
        assert state.reenable_backoff == WATCHDOG_REENABLE_BACKOFF_INITIAL

    def test_stale_feedback_cannot_sneak_path_back(self):
        # A path in outage keeps its last (good-looking) srtt; without
        # fresh probe feedback Eq. 3 must not trust it.
        sim, manager = _manager()
        now = 50.0
        sim.now = now
        manager._states[0].gcc.srtt = 0.05
        manager._states[0].last_feedback_time = now - 0.01

        state = _disable(manager, 1, now - 1.0, backoff=30.0)
        state.gcc.srtt = 0.05
        state.last_feedback_time = now - 5.0  # stale
        manager.last_fcd = 0.5

        manager._update_enablement(now)
        assert not state.enabled
