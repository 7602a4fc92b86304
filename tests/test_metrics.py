"""Tests for metrics collection and QoE summaries."""

import pytest

from repro.metrics import MetricsCollector, TimeSeries, format_table, summarize
from repro.metrics.collector import RenderedFrame
from repro.metrics.qoe import REPEATED_FRAME_PSNR, _freeze_stats


class TestTimeSeries:
    def test_append_and_window(self):
        series = TimeSeries()
        for t in range(10):
            series.append(float(t), t * 2.0)
        assert series.window(2.0, 5.0) == [4.0, 6.0, 8.0]

    def test_rejects_out_of_order(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        with pytest.raises(ValueError):
            series.append(0.5, 1.0)

    def test_mean(self):
        series = TimeSeries()
        assert series.mean() == 0.0
        series.append(0.0, 2.0)
        series.append(1.0, 4.0)
        assert series.mean() == 3.0


def rendered(ssrc, frame_id, render_time, capture_time=None, qp=30.0):
    if capture_time is None:
        capture_time = render_time - 0.1
    return RenderedFrame(
        ssrc=ssrc,
        frame_id=frame_id,
        capture_time=capture_time,
        render_time=render_time,
        size_bytes=4000,
        is_keyframe=False,
        fec_recovered=False,
        qp=qp,
    )


class TestFreezeStats:
    def test_no_freeze_for_steady_stream(self):
        times = [i / 30 for i in range(300)]
        stats = _freeze_stats(times, duration=10.0, nominal_interval=1 / 30,
                              threshold=0.2)
        assert stats.count == 0

    def test_gap_counts_as_freeze(self):
        times = [i / 30 for i in range(30)] + [2.0 + i / 30 for i in range(30)]
        stats = _freeze_stats(times, duration=3.0, nominal_interval=1 / 30,
                              threshold=0.2)
        assert stats.count == 1
        assert stats.total_duration == pytest.approx(1.03 - 1 / 30, abs=0.01)

    def test_empty_stream_is_one_long_freeze(self):
        stats = _freeze_stats([], duration=5.0, nominal_interval=1 / 30,
                              threshold=0.2)
        assert stats.count == 1
        assert stats.total_duration == 5.0

    def test_leading_and_trailing_gaps_counted(self):
        times = [2.0, 2.033, 2.066]
        stats = _freeze_stats(times, duration=5.0, nominal_interval=1 / 30,
                              threshold=0.2)
        assert stats.count == 2  # 0->2.0 and 2.066->5.0


class TestSummarize:
    def _collector_with_frames(self, n=60, fps=30.0):
        collector = MetricsCollector()
        for i in range(n):
            collector.record_render(rendered(1, i, i / fps + 0.1))
            collector.record_media_received(i / fps, 4000)
        record = collector.path_record(0)
        record.media_packets += 1
        record.media_bytes += 4000 * n
        return collector

    def test_fps(self):
        collector = self._collector_with_frames(60)
        summary = summarize(collector, duration=2.0)
        assert summary.average_fps == pytest.approx(30.0)

    def test_e2e(self):
        collector = self._collector_with_frames()
        summary = summarize(collector, duration=2.0)
        assert summary.e2e_mean == pytest.approx(0.1)
        assert summary.e2e_std == pytest.approx(0.0, abs=1e-9)

    def test_throughput(self):
        collector = self._collector_with_frames(60)
        summary = summarize(collector, duration=2.0)
        assert summary.throughput_bps == pytest.approx(60 * 4000 * 8 / 2.0)

    def test_fec_overhead_and_utilization(self):
        collector = MetricsCollector()
        record = collector.path_record(0)
        record.media_packets, record.media_bytes = 80, 80 * 1200
        record.fec_packets, record.fec_bytes = 20, 20 * 1200
        collector.add_fec_stats(fec_received=20, recoveries=5)
        summary = summarize(collector, duration=1.0)
        assert summary.fec_overhead == pytest.approx(0.25)
        assert summary.fec_utilization == pytest.approx(0.25)

    def test_freeze_psnr_penalty(self):
        """A frozen call has PSNR dragged toward the stale-frame level."""
        healthy = summarize(self._collector_with_frames(60), duration=2.0)
        frozen_collector = MetricsCollector()
        frozen_collector.record_render(rendered(1, 0, 0.05))
        frozen = summarize(frozen_collector, duration=2.0)
        assert frozen.average_psnr < healthy.average_psnr
        assert frozen.average_psnr >= REPEATED_FRAME_PSNR - 1.0

    def test_qp_joined_from_encoder_records(self):
        collector = MetricsCollector()
        collector.record_encoded_frame(1, 0, 0.0, 4000, qp=22.0, is_keyframe=True)
        frame = rendered(1, 0, 0.1, qp=float("nan"))
        frame.qp = float("nan")
        collector.record_render(frame)
        assert collector.rendered[0].qp == 22.0

    def test_multi_stream_fps_is_per_stream(self):
        collector = MetricsCollector()
        for ssrc in (1, 2):
            for i in range(60):
                collector.record_render(rendered(ssrc, i, i / 30 + 0.1))
        summary = summarize(collector, duration=2.0, num_streams=2)
        assert summary.average_fps == pytest.approx(30.0)

    def test_a_stream_that_never_renders_is_frozen_for_the_call(self):
        # Two streams, only the first renders: 300 frames in 10 s.  The
        # silent stream counts as one freeze of the whole call and
        # halves the per-stream frame rate.  Streams are counted, not
        # matched by id, so 0-based flow ssrcs and 1-based packet ssrcs
        # give the same summary.
        for first_ssrc in (0, 1):
            collector = MetricsCollector()
            for i in range(300):
                collector.record_render(rendered(first_ssrc, i, i / 30))
            summary = summarize(collector, duration=10.0, num_streams=2)
            assert summary.average_fps == pytest.approx(15.0)
            assert summary.freeze.count == 1
            assert summary.freeze.total_duration == pytest.approx(10.0)
            assert summary.freeze.durations == [10.0]

    def test_a_call_that_renders_nothing_freezes_every_stream(self):
        summary = summarize(MetricsCollector(), duration=4.0, num_streams=3)
        assert summary.average_fps == 0.0
        assert summary.freeze.durations == [4.0, 4.0, 4.0]

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            summarize(MetricsCollector(), duration=0.0)

    def test_fps_series_buckets(self):
        collector = self._collector_with_frames(60)
        series = collector.fps_series(duration=2.0, bucket=1.0)
        assert len(series) == 2
        assert series.values[0] == pytest.approx(30.0, abs=4)


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text
        assert "3.250" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
