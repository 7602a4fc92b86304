"""Long-run integration: 16-bit sequence wrap-around in a live call.

At 10 Mbps a call sends ~1000 packets/s, so the 65536-value RTP
sequence space wraps after about a minute — every receiver structure
keyed by sequence number (NACK tracking, FEC groups, packet buffer)
must survive the wrap.  These tests run calls
long and fast enough to cross the boundary, which is where modular
arithmetic bugs live.
"""

import pytest

from repro.core.api import build_call_config, build_scheduler
from repro.core.config import SystemKind
from repro.core.session import ConferenceCall
from repro.experiments.common import constant_paths, run_system


@pytest.mark.slow
class TestSequenceWrap:
    def test_call_survives_sequence_wrap(self):
        """~80 s at ~10 Mbps pushes the per-stream sequence numbers
        past 65536; QoE must stay flat across the wrap."""
        paths = constant_paths([15e6, 15e6], [0.02, 0.03], [0.002, 0.002])
        config = build_call_config(SystemKind.CONVERGE, duration=80.0, seed=7)
        call = ConferenceCall(config, paths, build_scheduler(config))
        result = call.run()

        # Confirm the wrap actually happened.
        packetizer = call.sender._streams[1].packetizer
        assert packetizer._next_seq < 65536  # wrapped at least once
        total_sent = call.metrics.total_media_packets_sent
        assert total_sent > 70_000

        summary = result.summary
        assert summary.average_fps > 27
        assert summary.keyframe_requests <= 2

        # No FPS cliff around the wrap: compare thirds of the call.
        fps = result.metrics.fps_series(80.0)
        middle = fps.window(30.0, 55.0)
        tail = fps.window(55.0, 80.0)
        assert sum(middle) / len(middle) > 27
        assert sum(tail) / len(tail) > 27

    def test_wrap_with_loss_and_nack(self):
        """The NACK unwrapper and FEC groups must track across the
        boundary under real loss."""
        paths = constant_paths([15e6, 15e6], [0.02, 0.03], [0.01, 0.01])
        result = run_system(
            SystemKind.CONVERGE, paths, duration=80.0, seed=8
        )
        summary = result.summary
        assert summary.average_fps > 24
        # Recovery machinery functioned across the wrap.
        assert result.metrics.fec_recoveries > 0
