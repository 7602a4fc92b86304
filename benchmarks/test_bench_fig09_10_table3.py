"""Benchmark: regenerate Figures 9-10 + Table 3 (in the wild)."""

from repro.experiments import fig09_10_wild as wild
from repro.experiments.figures import run_experiment


def _run(benchmark, scenario, duration, seed):
    rows = benchmark.pedantic(
        lambda: run_experiment(
            wild, duration, seed, scenarios=(scenario,),
            stream_counts=(1, 2),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(wild.render(rows))
    converge = [(c, s) for c, s in rows if s.label == "converge"]
    singles = [(c, s) for c, s in rows if s.label != "converge"]
    return converge, singles


def _assert_bonding_wins(converge, singles):
    # Fig. 9/10 shape: bonding both networks beats each single network
    # on delivered throughput at every stream count.
    for cell, summary in converge:
        peers = [s for c, s in singles if c.num_streams == cell.num_streams]
        assert summary.throughput_bps > 0.9 * max(
            p.throughput_bps for p in peers
        )


def test_bench_fig09_walking(benchmark, bench_duration, bench_seed):
    converge, singles = _run(benchmark, "walking", bench_duration, bench_seed)
    _assert_bonding_wins(converge, singles)


def test_bench_fig10_table3_driving(benchmark, bench_duration, bench_seed):
    converge, singles = _run(benchmark, "driving", bench_duration, bench_seed)
    # Table 3 shape: Converge's FEC overhead is below the single-path
    # WebRTC table overhead, with better utilization.
    assert max(s.fec_overhead for _, s in converge) < max(
        s.fec_overhead for _, s in singles
    )
    _assert_bonding_wins(converge, singles)
