"""Benchmark: regenerate Figures 12-13 + Table 5 (FEC trade-off)."""

from repro.experiments import fig12_13_fec as fec_exp
from repro.experiments.figures import run_experiment


def test_bench_fig12_13_table5(benchmark, bench_duration, bench_seed):
    rows = benchmark.pedantic(
        lambda: run_experiment(
            fec_exp, bench_duration, bench_seed,
            loss_percents=(1, 3, 5, 10),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(fec_exp.render(rows))
    converge = [s for _, s in fec_exp.arm(rows, "converge")]
    table = [s for _, s in fec_exp.arm(rows, "webrtc-table")]
    # Fig. 12 shape: the table is aggressive at low loss (~40% at 1%)
    # while path-specific FEC sends a small fraction; utilization of
    # the path-specific FEC is higher at every loss point.
    low_loss_table = table[0]
    low_loss_converge = converge[0]
    assert low_loss_table.fec_overhead > 0.3
    assert low_loss_converge.fec_overhead < 0.15
    wins = sum(
        1
        for c, t in zip(converge, table)
        if c.fec_utilization >= t.fec_utilization
    )
    assert wins >= len(converge) - 1
    # Fig. 13 shape: Converge operates at higher media throughput.
    assert sum(c.throughput_bps for c in converge) > sum(
        t.throughput_bps for t in table
    )
