"""Benchmark: regenerate Figure 1 (WebRTC degradation motivation)."""

from repro.experiments import fig01_motivation
from repro.experiments.figures import run_experiment


def test_bench_fig01(benchmark, bench_duration, bench_seed):
    rows = benchmark.pedantic(
        lambda: run_experiment(fig01_motivation, bench_duration, bench_seed),
        rounds=1,
        iterations=1,
    )
    print()
    print(fig01_motivation.render(rows))
    # Shape assertions: cellular-only WebRTC misses the 24 FPS target
    # part of the time and shows E2E spikes (Fig. 1's point).
    assert len(rows) == 2
    for _, summary in rows:
        assert summary.e2e_p95 >= summary.e2e_mean
        below = fig01_motivation.fraction_below_target(summary)
        assert 0.0 <= below <= 1.0
    assert any(summary.freeze_total > 0 for _, summary in rows)
