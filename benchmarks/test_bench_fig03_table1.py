"""Benchmark: regenerate Figure 3 + Table 1 (multipath is not enough)."""

from repro.experiments import fig03_multipath_not_enough as fig03
from repro.experiments.figures import run_experiment


def test_bench_fig03_table1(benchmark, bench_duration, bench_seed):
    rows = benchmark.pedantic(
        lambda: run_experiment(
            fig03, bench_duration, bench_seed, stream_counts=(1, 2)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(fig03.render(rows))
    by_system = {}
    for _, summary in rows:
        by_system.setdefault(summary.label, []).append(summary)

    # Shape: the no-feedback multipath variants request at least as
    # many keyframes / drop at least as many frames as Converge, and
    # Converge's FEC overhead is the smallest (Fig. 3c).
    converge = by_system["converge"]
    mrtp = by_system["m-rtp"]
    total = lambda summaries, attr: sum(getattr(s, attr) for s in summaries)
    assert total(mrtp, "frame_drops") > total(converge, "frame_drops")
    for system, summaries in by_system.items():
        if system == "converge":
            continue
        assert total(summaries, "fec_overhead") > total(
            converge, "fec_overhead"
        )
