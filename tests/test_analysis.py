"""Tests for the analysis package: stats, plots, export."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    describe,
    percentile,
    render_series,
    result_to_dict,
    sparkline,
)


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolates(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_validates(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
           st.floats(0, 100))
    def test_within_range(self, values, q):
        result = percentile(values, q)
        span = max(values) - min(values)
        tolerance = 1e-9 * max(span, 1.0)
        assert min(values) - tolerance <= result <= max(values) + tolerance


class TestDescribe:
    def test_basic(self):
        stats = describe([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["n"] == 3

    def test_zero_variance(self):
        assert describe([4.0, 4.0])["std"] == 0.0


class TestPlots:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_sparkline_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_resamples(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_render_series(self):
        samples = [(float(t), float(t)) for t in range(100)]
        chart = render_series(samples, height=4, width=40, title="ramp")
        lines = chart.splitlines()
        assert "ramp" in lines[0]
        assert len(lines) == 6  # header + 4 rows + footer


class TestExport:
    def _result(self):
        from repro.core.config import SystemKind
        from repro.experiments.cells import ConstantPaths, make_cell
        from repro.experiments.common import run_cell

        paths = ConstantPaths((8e6,), (0.02,), (0.0,))
        return run_cell(
            make_cell(paths, SystemKind.WEBRTC, duration=5.0, seed=1)
        )

    def test_result_to_dict_structure(self):
        data = result_to_dict(self._result())
        assert data["config"]["system"] == "webrtc"
        assert data["summary"]["frames_rendered"] > 0
        assert "receive_rate" in data["series"]
        assert "0" in data["paths"]
