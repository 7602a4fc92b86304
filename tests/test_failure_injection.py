"""Failure-injection integration tests.

Kill paths mid-call, inject loss storms and blackouts, and verify the
system recovers instead of wedging — the robustness claims behind the
paper's "uninterrupted calls" pitch.
"""

import pytest

from repro.core.api import build_call_config, build_scheduler, run_call
from repro.core.config import SystemKind
from repro.core.session import ConferenceCall
from repro.net.loss import BernoulliLoss, ScheduledLoss
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace


def outage_path(path_id, outage_start, outage_end, bps=10e6, delay=0.02,
                loss=None):
    """A path that blacks out completely during [start, end)."""
    trace = BandwidthTrace(
        [(0.0, bps), (outage_start, 0.0), (outage_end, bps)]
    )
    return PathConfig(
        path_id=path_id,
        trace=trace,
        propagation_delay=delay,
        loss_model=loss or BernoulliLoss(0.0),
        name=f"outage-{path_id}",
    )


def steady_path(path_id, bps=10e6, delay=0.02):
    return PathConfig(
        path_id=path_id,
        trace=BandwidthTrace.constant(bps),
        propagation_delay=delay,
        name=f"steady-{path_id}",
    )


class TestPathOutage:
    def test_converge_survives_one_path_blackout(self):
        """One path blacks out for 10 s mid-call; the call must keep a
        usable frame rate by leaning on the surviving path."""
        paths = [steady_path(0), outage_path(1, 10.0, 20.0)]
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=30.0, seed=4), paths
        )
        summary = result.summary
        assert summary.average_fps > 15
        # The outage window must not be one continuous 10 s freeze.
        assert summary.freeze.total_duration < 8.0

    def test_converge_recovers_after_blackout_ends(self):
        paths = [steady_path(0), outage_path(1, 5.0, 10.0)]
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=40.0, seed=4), paths
        )
        fps_series = result.metrics.fps_series(40.0)
        tail = fps_series.window(25.0, 40.0)
        assert sum(tail) / len(tail) > 22

    def test_single_path_webrtc_freezes_through_blackout(self):
        """The motivating failure: with only one network, a blackout is
        a freeze — quantifying what multipath buys."""
        paths = [outage_path(0, 10.0, 16.0)]
        result = run_call(
            build_call_config(SystemKind.WEBRTC, duration=30.0, seed=4), paths
        )
        assert result.summary.freeze.total_duration > 4.0

    def test_simultaneous_blackout_then_recovery(self):
        """Both networks die together (the paper's double coverage
        hole): the call freezes but must come back afterwards."""
        paths = [outage_path(0, 10.0, 14.0), outage_path(1, 10.0, 14.0)]
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=30.0, seed=4), paths
        )
        fps_series = result.metrics.fps_series(30.0)
        tail = fps_series.window(22.0, 30.0)
        assert sum(tail) / len(tail) > 18

    def test_permanent_path_death(self):
        """A path that dies and never returns must not poison the call."""
        paths = [steady_path(0), outage_path(1, 8.0, 10_000.0)]
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=30.0, seed=4), paths
        )
        fps_series = result.metrics.fps_series(30.0)
        tail = fps_series.window(20.0, 30.0)
        assert sum(tail) / len(tail) > 20


class TestLossStorm:
    def test_loss_storm_on_one_path(self):
        """30% loss storm on path 1 for 10 s: QoE dips but recovers."""
        storm = ScheduledLoss([(0.0, 0.002), (10.0, 0.3), (20.0, 0.002)])
        paths = [
            steady_path(0),
            PathConfig(
                path_id=1,
                trace=BandwidthTrace.constant(10e6),
                propagation_delay=0.03,
                loss_model=storm,
                name="stormy",
            ),
        ]
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=35.0, seed=4), paths
        )
        assert result.summary.average_fps > 15
        fps_series = result.metrics.fps_series(35.0)
        tail = fps_series.window(27.0, 35.0)
        assert sum(tail) / len(tail) > 20

    def test_fec_responds_to_storm(self):
        storm = ScheduledLoss([(0.0, 0.002), (5.0, 0.1), (15.0, 0.002)])
        paths = [
            steady_path(0),
            PathConfig(
                path_id=1,
                trace=BandwidthTrace.constant(10e6),
                propagation_delay=0.03,
                loss_model=storm,
                name="stormy",
            ),
        ]
        result = run_call(
            build_call_config(SystemKind.CONVERGE, duration=25.0, seed=4), paths
        )
        assert result.metrics.total_fec_packets_sent > 0


class TestConnectionMigration:
    def test_cm_migrates_on_blackout(self):
        paths = [outage_path(0, 5.0, 10_000.0), steady_path(1, delay=0.03)]
        config = build_call_config(
            SystemKind.WEBRTC_CM, duration=30.0, seed=4, single_path_id=0
        )
        scheduler = build_scheduler(config)
        call = ConferenceCall(config, paths, scheduler)
        result = call.run()
        assert scheduler.migrations >= 1
        assert scheduler.active_path_id == 1
        fps_series = result.metrics.fps_series(30.0)
        tail = fps_series.window(20.0, 30.0)
        assert sum(tail) / len(tail) > 15

    def test_cm_does_not_migrate_without_cause(self):
        paths = [steady_path(0), steady_path(1, delay=0.03)]
        config = build_call_config(
            SystemKind.WEBRTC_CM, duration=20.0, seed=4, single_path_id=0
        )
        scheduler = build_scheduler(config)
        ConferenceCall(config, paths, scheduler).run()
        assert scheduler.migrations == 0
