"""Benchmark: regenerate the Appendix D trace statistics (Figs. 20-22)."""

from repro.experiments import traces_appendix


def test_bench_traces(benchmark, bench_seed):
    rows = benchmark.pedantic(
        lambda: traces_appendix.rows(duration=180.0, seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    print()
    print(traces_appendix.render(rows))
    stats = {(s.scenario, s.network): s for s in rows}
    # Fig. 20: stationary WiFi is stable and ample.
    wifi = stats[("stationary", "wifi")]
    assert wifi.mean_mbps > 20
    assert wifi.below_required_fraction < 0.05
    # Fig. 22: driving swings hard; each network misses the 10 Mbps
    # requirement a large fraction of the time.
    for network in ("tmobile", "verizon"):
        driving = stats[("driving", network)]
        assert driving.below_required_fraction > 0.2
        assert driving.p10_mbps < 5
    # Walking sits between the two (Fig. 21).
    walking = stats[("walking", "wifi")]
    assert (
        wifi.below_required_fraction
        <= walking.below_required_fraction
        <= stats[("driving", "tmobile")].below_required_fraction
    )
