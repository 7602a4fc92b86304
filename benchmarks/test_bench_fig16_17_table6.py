"""Benchmark: regenerate Figures 16-17 + Table 6 (stationary scenario)."""

from repro.experiments import fig16_17_stationary as stationary
from repro.experiments.figures import run_experiment


def test_bench_fig16_17_table6(benchmark, bench_duration, bench_seed):
    rows = benchmark.pedantic(
        lambda: run_experiment(
            stationary, bench_duration, bench_seed, stream_counts=(1, 2)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(stationary.render(rows))
    by_key = {(s.label, c.num_streams): s for c, s in rows}
    for n in (1, 2):
        converge = by_key[("converge", n)]
        webrtc_w = by_key[("webrtc-w", n)]
        webrtc_t = by_key[("webrtc-t", n)]
        # Appendix A shape: aggregation beats both single paths on
        # throughput; FPS is close to WebRTC-W on a stable network.
        assert converge.throughput_bps > webrtc_t.throughput_bps
        assert converge.throughput_bps > 0.9 * webrtc_w.throughput_bps
        assert converge.average_fps > 0.8 * webrtc_w.average_fps
        # Stationary FEC overhead is minimal for Converge (Table 6).
        assert converge.fec_overhead < 0.1
