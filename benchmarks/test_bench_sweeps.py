"""Benchmark: design-parameter sweeps (DESIGN.md §7)."""

from repro.experiments import sweeps
from repro.experiments.figures import run_experiment


def test_bench_design_sweeps(benchmark, bench_seed):
    rows = benchmark.pedantic(
        lambda: run_experiment(sweeps, 40.0, bench_seed),
        rounds=1,
        iterations=1,
    )
    print()
    print(sweeps.render(rows))
    results = {}
    for parameter, _value, summary in sweeps.points(rows):
        results.setdefault(parameter, []).append(summary)
    assert list(results) == ["packet_buffer", "playout_deadline", "loss_model"]

    buffers = results["packet_buffer"]
    # A starved packet buffer must hurt: the smallest capacity drops
    # at least as many frames as the WebRTC-sized one.
    assert buffers[0].frame_drops >= buffers[-1].frame_drops
    deadlines = results["playout_deadline"]
    # Loosening the deadline monotonically raises (or keeps) E2E p95
    # pressure; at minimum the tightest deadline must not have the
    # highest latency.
    assert deadlines[0].e2e_mean <= deadlines[-1].e2e_mean + 0.05
