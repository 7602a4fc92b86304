"""Fault-injection subsystem and lossy-feedback hardening tests.

Covers the declarative plan layer, the injector's runtime overrides,
the FIFO reverse channel, the sender's feedback-silence watchdog, the
acceptance scenario (a reverse-channel RTCP blackout must not wedge a
two-path call), total feedback starvation, and the determinism
contract for chaos runs.
"""

import json

import pytest

from repro.analysis.export import result_to_dict
from repro.core.config import WATCHDOG_SILENCE_TIMEOUT, SystemKind
from repro.experiments.common import run_chaos, run_system
from repro.faults import (
    CHAOS_SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    build_chaos_plan,
)
from repro.metrics.collector import MetricsCollector
from repro.metrics.recovery import compute_recovery
from repro.net.loss import BernoulliLoss
from repro.net.multipath import PathSet
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtp.rtcp import TransportFeedback
from repro.simulation.simulator import Simulator


def path_config(path_id, bps=10e6, delay=0.02, jitter=0.0):
    return PathConfig(
        path_id=path_id,
        trace=BandwidthTrace.constant(bps),
        propagation_delay=delay,
        jitter_max=jitter,
        name=f"p{path_id}",
    )


def make_paths(sim, num=2, **kwargs):
    return PathSet(sim, [path_config(i, **kwargs) for i in range(num)])


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.BLACKOUT, path_id=-1, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.BLACKOUT, path_id=0, start=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.BLACKOUT, path_id=0, start=0.0, duration=0.0)
        with pytest.raises(ValueError):
            FaultEvent(
                FaultKind.LOSS_STORM, 0, start=0.0, duration=1.0, magnitude=1.5
            )
        with pytest.raises(ValueError):
            FaultEvent(
                FaultKind.DELAY_SPIKE, 0, start=0.0, duration=1.0, magnitude=0.0
            )
        with pytest.raises(ValueError):
            FaultEvent(
                FaultKind.CAPACITY_CAP, 0, start=0.0, duration=1.0,
                magnitude=-1.0,
            )

    def test_rejects_overlapping_same_kind_windows(self):
        events = [
            FaultEvent(FaultKind.BLACKOUT, 0, start=1.0, duration=3.0),
            FaultEvent(FaultKind.BLACKOUT, 0, start=2.0, duration=1.0),
        ]
        with pytest.raises(ValueError, match="overlapping"):
            FaultPlan.of(events)

    def test_allows_overlap_across_kinds_and_paths(self):
        plan = FaultPlan.of(
            [
                FaultEvent(FaultKind.BLACKOUT, 0, start=1.0, duration=3.0),
                FaultEvent(FaultKind.FEEDBACK_BLACKOUT, 0, start=1.0, duration=3.0),
                FaultEvent(FaultKind.BLACKOUT, 1, start=2.0, duration=3.0),
            ]
        )
        assert len(plan) == 3
        assert plan.max_end == 5.0
        assert len(plan.for_path(0)) == 2

    def test_events_sorted_by_start(self):
        plan = FaultPlan.of(
            [
                FaultEvent(FaultKind.BLACKOUT, 0, start=5.0, duration=1.0),
                FaultEvent(FaultKind.LOSS_STORM, 1, start=2.0, duration=1.0,
                           magnitude=0.2),
            ]
        )
        assert [e.start for e in plan] == [2.0, 5.0]

    def test_dict_roundtrip(self):
        plan = FaultPlan.of(
            [
                FaultEvent(FaultKind.FEEDBACK_LOSS, 1, start=3.0, duration=2.0,
                           magnitude=0.4),
                FaultEvent(FaultKind.QUEUE_FLAP, 0, start=1.0, duration=1.0,
                           magnitude=8000),
            ]
        )
        restored = FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert restored.to_dict() == plan.to_dict()


class TestFaultInjector:
    def test_rejects_unknown_path(self):
        sim = Simulator(seed=1)
        paths = make_paths(sim, num=2)
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.BLACKOUT, 7, start=1.0, duration=1.0)]
        )
        with pytest.raises(ValueError, match="unknown path"):
            FaultInjector(sim, paths, plan)

    def test_blackout_caps_capacity_for_the_window(self):
        sim = Simulator(seed=1)
        paths = make_paths(sim, num=1)
        path = paths.get(0)
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.BLACKOUT, 0, start=1.0, duration=2.0)]
        )
        injector = FaultInjector(sim, paths, plan)
        injector.arm()
        observed = {}
        sim.schedule_at(0.5, lambda: observed.update(before=path.capacity_now()))
        sim.schedule_at(2.0, lambda: observed.update(during=path.capacity_now()))
        sim.schedule_at(3.5, lambda: observed.update(after=path.capacity_now()))
        sim.run(until=4.0)
        assert observed["before"] == 10e6
        assert observed["during"] == 0.0
        assert observed["after"] == 10e6

    def test_feedback_blackout_drops_reverse_messages(self):
        sim = Simulator(seed=1)
        paths = make_paths(sim, num=1)
        path = paths.get(0)
        delivered = []
        path.on_feedback_deliver = delivered.append
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.FEEDBACK_BLACKOUT, 0, start=1.0, duration=2.0)]
        )
        FaultInjector(sim, paths, plan).arm()
        for t in (0.5, 2.0, 3.5):
            sim.schedule_at(
                t,
                lambda: path.send_feedback(
                    TransportFeedback(ssrc=0, path_id=0, packets=[])
                ),
            )
        sim.run(until=4.0)
        assert path.stats.feedback_sent == 3
        assert path.stats.feedback_dropped == 1
        assert path.stats.feedback_delivered == 2
        assert len(delivered) == 2

    def test_active_faults_tracks_windows(self):
        sim = Simulator(seed=1)
        paths = make_paths(sim, num=1)
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.DELAY_SPIKE, 0, start=1.0, duration=2.0,
                        magnitude=0.1)]
        )
        injector = FaultInjector(sim, paths, plan)
        injector.arm()
        snapshots = {}
        sim.schedule_at(2.0, lambda: snapshots.update(mid=len(injector.active_faults())))
        sim.run(until=4.0)
        assert snapshots["mid"] == 1
        assert injector.active_faults() == []

    def test_faults_recorded_in_metrics(self):
        sim = Simulator(seed=1)
        paths = make_paths(sim, num=1)
        metrics = MetricsCollector()
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.LOSS_STORM, 0, start=1.0, duration=2.0,
                        magnitude=0.3)]
        )
        FaultInjector(sim, paths, plan, metrics).arm()
        assert len(metrics.fault_events) == 1
        record = metrics.fault_events[0]
        assert record.kind == "loss-storm"
        assert (record.start, record.end) == (1.0, 3.0)


class TestReverseChannelFifo:
    def test_feedback_delivery_is_monotone_under_jitter(self):
        """Feedback must not reorder: jitter draws that would let a
        later report overtake an earlier one are clamped to the FIFO
        horizon, like the in-order socket the reverse channel models."""
        sim = Simulator(seed=7)
        paths = make_paths(sim, num=1, jitter=0.05)
        path = paths.get(0)
        deliveries = []
        path.on_feedback_deliver = (
            lambda msg: deliveries.append((sim.now, msg))
        )
        for i in range(50):
            sim.schedule_at(
                i * 0.001,
                lambda i=i: path.send_feedback(("report", i)),
            )
        sim.run(until=2.0)
        assert len(deliveries) == 50
        times = [t for t, _ in deliveries]
        assert times == sorted(times)
        # FIFO: payloads arrive in send order.
        assert [msg[1] for _, msg in deliveries] == list(range(50))


class TestChaosScenarios:
    def test_all_builders_produce_valid_plans(self):
        for name in CHAOS_SCENARIOS:
            plan = build_chaos_plan(name, duration=60.0, seed=3, num_paths=2)
            # A plan must do *something*: fault windows, churn, or both.
            assert len(plan) >= 1 or plan.churn, name
            assert plan.max_end <= 60.0, name
            assert plan.max_churn_time <= 60.0, name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            build_chaos_plan("nope", duration=30.0)

    def test_chaos_monkey_is_seed_deterministic(self):
        one = build_chaos_plan("chaos-monkey", 60.0, seed=5, num_paths=2)
        two = build_chaos_plan("chaos-monkey", 60.0, seed=5, num_paths=2)
        other = build_chaos_plan("chaos-monkey", 60.0, seed=6, num_paths=2)
        assert one.to_dict() == two.to_dict()
        assert one.to_dict() != other.to_dict()


class TestRtcpBlackoutAcceptance:
    """The issue's acceptance scenario: a two-path call under a 3 s
    reverse-channel RTCP blackout on the fast path must not wedge."""

    @pytest.fixture(scope="class")
    def result(self):
        paths = [
            path_config(0, bps=10e6, delay=0.015),
            path_config(1, bps=6e6, delay=0.045),
        ]
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.FEEDBACK_BLACKOUT, 0, start=8.0, duration=3.0)]
        )
        return run_system(
            SystemKind.CONVERGE, paths, duration=25.0, seed=3,
            fault_plan=plan,
        )

    def test_media_keeps_flowing(self, result):
        assert result.summary.average_fps > 15
        fps = result.metrics.fps_series(25.0)
        fault_window = fps.window(8.0, 11.0)
        # The surviving path carries the call through the blackout.
        assert sum(fault_window) / len(fault_window) > 10

    def test_silent_path_demoted_within_watchdog_timeout(self, result):
        demotions = [
            (time, event)
            for time, path_id, event in result.metrics.path_events
            if path_id == 0 and 8.0 <= time <= 11.0
            and event in ("degraded", "disabled")
        ]
        assert demotions, "path 0 was never demoted during the blackout"
        first = min(time for time, _ in demotions)
        # Demotion must land within the watchdog timeout of the fault
        # (plus one transport-feedback interval of detection slack).
        assert first - 8.0 <= WATCHDOG_SILENCE_TIMEOUT + 0.2

    def test_path_readmitted_after_fault_clears(self, result):
        readmissions = [
            time
            for time, path_id, event in result.metrics.path_events
            if path_id == 0 and time >= 11.0 and event in ("enabled", "restored")
        ]
        assert readmissions, "path 0 was never re-admitted"

    def test_recovery_under_two_seconds(self, result):
        recoveries = compute_recovery(result.metrics, 25.0)
        assert len(recoveries) == 1
        recovery = recoveries[0]
        assert recovery.recovered
        assert recovery.worst_time < 2.0


class TestTotalFeedbackStarvation:
    def test_call_survives_feedback_blackout_on_all_paths(self):
        """Every reverse channel goes dark at once: the sender must
        fall back to last-known-good operation, not wedge."""
        paths = [path_config(0, bps=8e6), path_config(1, bps=8e6)]
        plan = FaultPlan.of(
            [
                FaultEvent(FaultKind.FEEDBACK_BLACKOUT, 0, start=8.0, duration=3.0),
                FaultEvent(FaultKind.FEEDBACK_BLACKOUT, 1, start=8.0, duration=3.0),
            ]
        )
        result = run_system(
            SystemKind.CONVERGE, paths, duration=20.0, seed=3,
            fault_plan=plan,
        )
        events = result.metrics.path_events
        assert any(event == "failsafe" for _, _, event in events)
        # Frames still render during the starvation window (media
        # flows forward even though the control loop is dark).
        rendered_during = [
            f for f in result.metrics.rendered if 8.0 <= f.render_time <= 11.0
        ]
        assert len(rendered_during) > 30
        # And the call fully recovers afterwards.
        fps_tail = result.metrics.fps_series(20.0).window(14.0, 20.0)
        assert sum(fps_tail) / len(fps_tail) > 20


class TestWatchdogDegradation:
    def test_degraded_rate_decays_toward_min(self):
        """While feedback is silent the effective rate must fall
        multiplicatively from the frozen last-known-good value."""
        paths = [path_config(0, bps=8e6), path_config(1, bps=8e6)]
        plan = FaultPlan.of(
            [FaultEvent(FaultKind.FEEDBACK_BLACKOUT, 0, start=8.0, duration=3.0)]
        )
        result = run_system(
            SystemKind.CONVERGE, paths, duration=16.0, seed=3,
            fault_plan=plan,
        )
        series = result.metrics.path_rate_series[0]
        before = series.window(7.0, 8.0)
        during = series.window(9.5, 10.5)
        assert before and during
        # Well into the blackout the paced rate sits far below the
        # healthy rate (decay), but stays positive (floor at min rate).
        assert max(during) < 0.7 * (sum(before) / len(before))
        assert min(during) > 0


class TestChaosDeterminism:
    def test_same_seed_chaos_runs_are_byte_identical(self):
        results = [
            run_chaos(
                SystemKind.CONVERGE, "driving", "chaos-monkey",
                duration=12.0, seed=11,
            )
            for _ in range(2)
        ]
        reports = [
            json.dumps(result_to_dict(r), sort_keys=True) for r in results
        ]
        assert reports[0] == reports[1]
