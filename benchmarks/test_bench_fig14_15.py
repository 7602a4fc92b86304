"""Benchmark: regenerate Figures 14-15 (comparison with existing solutions).

Runs the seven-system comparison through the parallel runner twice —
once cold (cells execute) and once warm (everything served from the
result cache) — asserting the warm run is all hits and byte-identical,
then checks the paper's QoE claims on the rows.  The cold/warm timing
record is the ledger's ``harness-cache`` workload
(``benchmarks/ledger/README.md``); this bench writes no file.

Knobs (environment): ``REPRO_BENCH_DURATION``, ``REPRO_BENCH_SEED``,
``REPRO_BENCH_JOBS`` (worker processes; default all cores).
"""

import os

from repro.experiments import fig14_15_comparison as comparison
from repro.experiments.cells import canonical_json
from repro.experiments.figures import run_experiment
from repro.experiments.runner import results_of, run_cells, stats_line


def test_bench_fig14_15(benchmark, bench_duration, bench_seed, tmp_path):
    jobs_env = os.environ.get("REPRO_BENCH_JOBS")
    jobs = int(jobs_env) if jobs_env else None
    cache_dir = tmp_path / "cache"
    cells = comparison.cells(duration=bench_duration, seed=bench_seed)

    cold = benchmark.pedantic(
        lambda: run_cells(cells, jobs=jobs, cache=cache_dir),
        rounds=1,
        iterations=1,
    )
    warm = run_cells(cells, jobs=jobs, cache=cache_dir)

    # Cache correctness: the warm run is all hits and byte-identical.
    assert warm.stats.executed == 0
    assert warm.stats.cache_hit_rate >= 0.9
    cold_payloads = [s.data for s in results_of(cold)]
    warm_payloads = [s.data for s in results_of(warm)]
    assert [canonical_json(p) for p in cold_payloads] == [
        canonical_json(p) for p in warm_payloads
    ]

    rows = run_experiment(
        comparison, bench_duration, bench_seed, cache=cache_dir
    )
    print()
    print(comparison.render(rows))
    print(f"cold: {stats_line(cold.stats)}")
    print(f"warm: {stats_line(warm.stats)}")

    # The Fig. 14/15 QoE claims hold in steady state; short smoke runs
    # (CI sets REPRO_BENCH_DURATION to a few seconds) exercise only the
    # runner/cache machinery above, where warm-up still dominates QoE.
    if bench_duration < 30.0:
        return

    by_system = {s.label: s for _, s in rows}
    converge = by_system["converge"]
    # Fig. 14(a): Converge delivers the highest media throughput and
    # the best (lowest) QP.
    for name, summary in by_system.items():
        if name == "converge":
            continue
        assert converge.throughput_bps >= summary.throughput_bps * 0.95, name
        assert converge.average_qp <= summary.average_qp + 1.0, name
    # Fig. 14(b): Converge's FEC overhead is the smallest.
    assert converge.fec_overhead == min(s.fec_overhead for _, s in rows)
    # Fig. 15: Converge's PSNR is at the top of the multipath field —
    # clearly above the field's average and within seed noise of the
    # single best alternative.
    multipath = ("srtt", "m-tput", "m-rtp")
    field_mean = sum(
        by_system[n].average_psnr for n in multipath
    ) / len(multipath)
    assert converge.average_psnr > field_mean
    assert converge.average_psnr >= max(
        by_system[n].average_psnr for n in multipath
    ) - 2.0
