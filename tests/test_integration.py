"""End-to-end integration tests: full calls through the public API."""

import pytest

from repro import (
    CallConfig,
    FecMode,
    SystemKind,
    build_call_config,
    run_call,
)
from repro.experiments.cells import ConstantPaths, ScenarioPaths, make_cell
from repro.experiments.common import constant_paths, run_cell

SHORT = 15.0


class TestEndToEnd:
    @pytest.mark.parametrize(
        "system",
        [
            SystemKind.CONVERGE,
            SystemKind.WEBRTC,
            SystemKind.WEBRTC_CM,
            SystemKind.SRTT,
            SystemKind.MTPUT,
            SystemKind.MRTP,
        ],
    )
    def test_every_system_completes_a_call(self, system):
        paths = ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.005, 0.005))
        result = run_cell(make_cell(paths, system, duration=SHORT, seed=3))
        summary = result.summary
        assert summary.frames_rendered > 0
        assert summary.average_fps > 5
        assert summary.throughput_bps > 0
        assert summary.e2e_mean > 0

    def test_clean_network_is_flawless(self):
        paths = ConstantPaths((12e6, 12e6), (0.02, 0.03), (0.0, 0.0))
        result = run_cell(
            make_cell(paths, SystemKind.CONVERGE, duration=30.0, seed=4)
        )
        summary = result.summary
        assert summary.average_fps > 28
        assert summary.frame_drops <= 5
        assert summary.keyframe_requests <= 1
        assert summary.e2e_mean < 0.15

    def test_converge_aggregates_bandwidth(self):
        """Two 7 Mbps paths: single-path WebRTC cannot reach what the
        bonded call reaches."""
        paths = ConstantPaths((7e6, 7e6), (0.02, 0.03), (0.0, 0.0))
        converge = run_cell(
            make_cell(paths, SystemKind.CONVERGE, duration=40.0, seed=5)
        ).summary
        webrtc = run_cell(
            make_cell(paths, SystemKind.WEBRTC, duration=40.0, seed=5)
        ).summary
        assert converge.throughput_bps > 1.2 * webrtc.throughput_bps

    def test_multi_stream_call(self):
        paths = ConstantPaths((15e6, 15e6), (0.02, 0.03), (0.0, 0.0))
        result = run_cell(
            make_cell(
                paths, SystemKind.CONVERGE, duration=SHORT, num_streams=3,
                seed=6,
            )
        )
        rendered_ssrcs = {f.ssrc for f in result.metrics.rendered}
        assert rendered_ssrcs == {1, 2, 3}

    def test_deterministic_given_seed(self):
        cell = make_cell(
            ScenarioPaths("walking"), SystemKind.CONVERGE, duration=SHORT,
            seed=9,
        )
        a = run_cell(cell)
        b = run_cell(cell)
        assert a.summary.frames_rendered == b.summary.frames_rendered
        assert a.summary.throughput_bps == b.summary.throughput_bps
        assert a.summary.e2e_mean == b.summary.e2e_mean

    def test_different_seeds_differ(self):
        a, b = (
            run_cell(
                make_cell(
                    ScenarioPaths("walking"), SystemKind.CONVERGE,
                    duration=SHORT, seed=seed,
                )
            )
            for seed in (9, 10)
        )
        assert a.summary.throughput_bps != b.summary.throughput_bps

    def test_fec_none_mode_sends_no_fec(self):
        paths = ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.02, 0.02))
        result = run_cell(
            make_cell(
                paths,
                SystemKind.CONVERGE,
                duration=SHORT,
                seed=3,
                fec_mode=FecMode.NONE,
            )
        )
        assert result.summary.fec_overhead == 0.0

    def test_lossy_path_generates_fec_and_recoveries(self):
        paths = ConstantPaths((10e6, 10e6), (0.02, 0.03), (0.03, 0.03))
        result = run_cell(
            make_cell(paths, SystemKind.CONVERGE, duration=30.0, seed=3)
        )
        summary = result.summary
        assert summary.fec_overhead > 0.01
        assert result.metrics.fec_recoveries > 0

    def test_run_call_validates_paths(self):
        config = build_call_config(SystemKind.CONVERGE, duration=SHORT)
        with pytest.raises(ValueError):
            run_call(config, [])

    def test_single_path_call_works(self):
        """Backward compatibility: a call over one path (legacy peer)."""
        paths = ConstantPaths((8e6,), (0.02,), (0.0,))
        result = run_cell(
            make_cell(paths, SystemKind.WEBRTC, duration=SHORT, seed=3)
        )
        assert result.summary.average_fps > 20

    def test_packet_conservation(self):
        """Every media packet sent is either delivered or accounted as
        lost by the path statistics."""
        paths = constant_paths([8e6, 8e6], [0.02, 0.03], [0.01, 0.01])
        config = build_call_config(SystemKind.CONVERGE, duration=SHORT, seed=3)
        from repro.core.api import build_scheduler
        from repro.core.session import ConferenceCall

        call = ConferenceCall(config, paths, build_scheduler(config))
        call.run()
        for path in call.paths:
            stats = path.stats
            in_flight_or_queued = path.queue_len
            accounted = (
                stats.delivered_packets
                + stats.random_losses
                + stats.queue_drops
                + in_flight_or_queued
            )
            # packets still propagating at cut-off explain any gap
            assert stats.sent_packets - accounted >= 0
            assert stats.sent_packets - accounted < 100

    def test_e2e_latency_reasonable_on_clean_paths(self):
        paths = ConstantPaths((10e6, 10e6), (0.025, 0.035), (0.0, 0.0))
        result = run_cell(
            make_cell(paths, SystemKind.CONVERGE, duration=20.0, seed=3)
        )
        # one-way 25-35 ms + gathering + decode: must be well under
        # the 400 ms playout budget
        assert result.summary.e2e_mean < 0.2
        assert result.summary.e2e_p95 < 0.4
