"""Tests for the fleet engine, bootstrap CIs and cache shard/merge."""

import hashlib
import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import bootstrap_ci, percentile
from repro.cli import main
from repro.core.config import SystemKind
from repro.experiments.cache import ResultCache
from repro.experiments.cells import Fidelity, canonical_json, cell_key
from repro.experiments.fleet import (
    FLEET_METRICS,
    FleetSpec,
    expand_fleet,
    fleet_statistics,
    run_fleet,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import execute_cell, run_cells
from repro.flow.batch import _BatchFlowRun, execute_batch

from tests.batch_spy import poison_seed, watch_payload_builds

DURATION = 2.0


def _spec(**kw):
    defaults = dict(
        scenarios=("driving",),
        systems=(SystemKind.CONVERGE,),
        seeds=(1, 2, 3),
        duration=DURATION,
        fidelity=Fidelity.FLOW,
    )
    defaults.update(kw)
    return FleetSpec(**defaults)


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(scenarios=())
        with pytest.raises(ValueError):
            _spec(systems=())
        with pytest.raises(ValueError):
            _spec(seeds=())
        with pytest.raises(ValueError):
            _spec(duration=0.0)

    def test_string_fidelity_is_coerced(self):
        assert _spec(fidelity="flow").fidelity is Fidelity.FLOW

    def test_from_ranges(self):
        spec = FleetSpec.from_ranges(
            ["driving", "walking"],
            [SystemKind.CONVERGE, SystemKind.SRTT],
            seed_start=5,
            seed_count=4,
            duration=DURATION,
        )
        assert spec.seeds == (5, 6, 7, 8)
        assert spec.cell_count == 2 * 2 * 4
        with pytest.raises(ValueError):
            FleetSpec.from_ranges(
                ["driving"], [SystemKind.CONVERGE], 1, 0, DURATION
            )

    def test_expand_order_scenarios_outermost_seeds_innermost(self):
        spec = _spec(
            scenarios=("driving", "walking"),
            systems=(SystemKind.CONVERGE, SystemKind.SRTT),
            seeds=(1, 2),
        )
        cells = expand_fleet(spec)
        assert len(cells) == spec.cell_count
        observed = [(c.system, c.seed) for c in cells[:4]]
        assert observed == [
            (SystemKind.CONVERGE, 1),
            (SystemKind.CONVERGE, 2),
            (SystemKind.SRTT, 1),
            (SystemKind.SRTT, 2),
        ]
        # Second scenario repeats the same (system, seed) grid.
        assert [(c.system, c.seed) for c in cells[4:]] == observed


def scalar_bootstrap_ci(values, confidence, resamples, seed_label):
    """The oracle: ``bootstrap_ci`` as it was before it became an array
    program, one ``randrange`` and one addition at a time."""
    n = len(values)
    digest = hashlib.sha256(seed_label.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    means = []
    for _ in range(resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    alpha = 1.0 - confidence
    return (
        percentile(means, 100.0 * (alpha / 2.0)),
        percentile(means, 100.0 * (1.0 - alpha / 2.0)),
    )


# randrange(n) keeps a word with probability n / 2**n.bit_length(): just
# over one half at a power of two, almost one right below it.
_EDGE_SIZES = sorted(
    n
    for k in range(1, 11)
    for n in (2**k - 1, 2**k, 2**k + 1)
    if 2 <= n <= 1100
)
_MAGNITUDES = (1e-300, 1.0, 1e3, 1e300)


@st.composite
def _samples(draw):
    n = draw(st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(2, 1100)))
    if draw(st.booleans()):
        return [draw(st.sampled_from((-0.0, 0.0, 2.5, -1e300)))] * n
    scale = draw(st.sampled_from(_MAGNITUDES))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    values = [rng.uniform(-1.0, 1.0) * scale for _ in range(n)]
    values[rng.randrange(n)] = -0.0
    return values


class TestBootstrapCi:
    @settings(max_examples=60, deadline=None)
    @given(
        values=_samples(),
        resamples=st.sampled_from((1, 2, 50, 1000)),
        confidence=st.sampled_from((0.5, 0.9, 0.95, 0.99)),
        label=st.sampled_from(("bootstrap", "driving/converge/e2e_p95")),
    )
    @example(values=[-0.0] * 3, resamples=2, confidence=0.5, label="x")
    @example(
        values=[1e300, -1e300, 1e-300, 1.0] * 128, resamples=50,
        confidence=0.99, label="x",
    )
    def test_equals_the_scalar_loop_bit_for_bit(
        self, values, resamples, confidence, label
    ):
        # repr, not ==: the sign of a zero is part of a report's bytes.
        assert repr(
            bootstrap_ci(values, confidence, resamples, label)
        ) == repr(scalar_bootstrap_ci(values, confidence, resamples, label))

    def test_blocks_smaller_than_a_resample(self, monkeypatch):
        # A sample wider than the block is gathered one row at a time.
        monkeypatch.setattr("repro.analysis.stats._BOOTSTRAP_BLOCK", 8)
        values = [float(v) for v in range(13)]
        assert bootstrap_ci(values, 0.9, 25, "x") == scalar_bootstrap_ci(
            values, 0.9, 25, "x"
        )

    def test_stream_is_pinned_by_a_literal(self):
        # Oracle and code could be edited together; this cannot drift.
        assert bootstrap_ci(
            [0.5, -1.25, 3.0, 7.75, 2.0, -0.0, 11.5],
            confidence=0.9,
            resamples=200,
            seed_label="driving/converge/e2e_p95",
        ) == (0.9642857142857143, 6.289285714285713)

    def test_importing_stats_does_not_import_numpy(self):
        # Packet-fidelity users of repro.analysis stay numpy-free; the
        # bootstrap imports it on first use.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import repro.analysis.stats; "
            "sys.exit(1 if 'numpy' in sys.modules else 0)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], resamples=0)

    def test_single_sample_is_degenerate(self):
        assert bootstrap_ci([4.2]) == (4.2, 4.2)

    def test_deterministic_per_label(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        a = bootstrap_ci(values, seed_label="x")
        assert a == bootstrap_ci(values, seed_label="x")
        # Different labels draw from different streams (the endpoints
        # can still coincide on tiny samples, so compare the full
        # resample behaviour through a one-resample interval).
        assert bootstrap_ci(values, resamples=1, seed_label="x") != (
            bootstrap_ci(values, resamples=1, seed_label="y")
        )

    def test_interval_brackets_the_mean(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        lo, hi = bootstrap_ci(values, resamples=500)
        assert lo <= 12.0 <= hi
        assert min(values) <= lo <= hi <= max(values)


class TestFleetStatistics:
    def test_alignment_error(self):
        spec = _spec()
        with pytest.raises(ValueError):
            fleet_statistics(spec, [None] * (spec.cell_count + 1))

    def test_groups_and_failures(self, tmp_path):
        spec = _spec(seeds=(1, 2))
        report = run_cells(
            expand_fleet(spec), cache=tmp_path, mode="batch"
        )
        summaries = list(report.summaries())
        groups = fleet_statistics(spec, summaries)
        assert len(groups) == 1
        group = groups[0]
        assert (group.scenario, group.system) == ("driving", "converge")
        assert group.n == 2 and group.failed == 0
        for metric in FLEET_METRICS:
            row = group.metrics[metric]
            assert row["ci_lo"] <= row["mean"] <= row["ci_hi"]
        # A failed cell shows up as failed, not as a crash.
        summaries[0] = None
        degraded = fleet_statistics(spec, summaries)[0]
        assert degraded.n == 1 and degraded.failed == 1

    def test_statistics_are_pure(self, tmp_path):
        spec = _spec(seeds=(1, 2))
        summaries = run_cells(
            expand_fleet(spec), cache=tmp_path, mode="batch"
        ).summaries()
        first = [g.payload() for g in fleet_statistics(spec, summaries)]
        second = [g.payload() for g in fleet_statistics(spec, summaries)]
        assert first == second


class TestRunFleet:
    def test_report_payload_round_trips(self, tmp_path):
        spec = _spec(seeds=(1, 2))
        report = run_fleet(spec, cache=tmp_path)
        payload = report.payload()
        assert payload == json.loads(json.dumps(payload))
        assert payload["spec"]["seeds"] == [1, 2]
        assert payload["stats"]["errors"] == 0
        assert len(payload["groups"]) == 1


def _group_payloads(groups):
    return [group.payload() for group in groups]


def _stored_summaries(root):
    """Each entry's summary exactly as stored: the bytes between the
    key and the wall-clock bookkeeping."""
    store = ResultCache(root)
    stored = {}
    for entry in store.entries():
        raw = store.path_for(entry.key).read_bytes()
        head = b'"key":"%s","summary":' % entry.key.encode()
        lo = raw.index(head) + len(head)
        stored[entry.key] = raw[lo:raw.rindex(b',"wall_seconds":')]
    return stored


class TestRunFleetStreams:
    """``run_fleet`` reduces cells as they land; its statistics are those
    of the collected summaries, whichever way a cell was produced."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode", [None, "batch", "scalar"])
    def test_equals_the_statistics_of_collected_summaries(
        self, mode, jobs, tmp_path
    ):
        spec = _spec(systems=(SystemKind.CONVERGE, SystemKind.WEBRTC))
        cells = expand_fleet(spec)
        for hits, fleet_cache, cells_cache in (
            (0, None, None),
            (0, tmp_path / "fleet", tmp_path / "cells"),  # cold
            (len(cells), tmp_path / "fleet", tmp_path / "cells"),  # warm
        ):
            fleet = run_fleet(
                spec, jobs=jobs, cache=fleet_cache, mode=mode, resamples=100
            )
            report = run_cells(cells, jobs=jobs, cache=cells_cache, mode=mode)
            assert _group_payloads(fleet.groups) == _group_payloads(
                fleet_statistics(spec, report.summaries(), resamples=100)
            )
            for stats in (fleet.stats, report.stats):
                assert stats.cache_hits == hits
                assert stats.executed == len(cells) - hits
                assert stats.errors == 0 and stats.batch_fallbacks == 0
        # Whichever engine served them, the bytes are the scalar pin's.
        pinned = run_fleet(
            spec, jobs=1, cache=tmp_path / "pin", mode="scalar", resamples=100
        )
        assert _group_payloads(fleet.groups) == _group_payloads(pinned.groups)
        stored = _stored_summaries(tmp_path / "fleet")
        assert len(stored) == len(cells)
        assert stored == _stored_summaries(tmp_path / "pin")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode", [None, "batch", "scalar"])
    def test_a_failed_cell_is_a_hole_in_its_group(
        self, mode, jobs, monkeypatch
    ):
        spec = _spec(seeds=(1, 2, 3, 4))
        poison_seed(monkeypatch, 2)
        fleet = run_fleet(spec, jobs=jobs, mode=mode, resamples=100)
        report = run_cells(expand_fleet(spec), jobs=jobs, mode=mode)
        assert [o.ok for o in report.outcomes] == [True, False, True, True]
        assert _group_payloads(fleet.groups) == _group_payloads(
            fleet_statistics(spec, report.summaries(), resamples=100)
        )
        group = fleet.groups[0]
        assert (group.n, group.failed) == (3, 1)
        assert set(group.metrics) == set(FLEET_METRICS)
        assert fleet.stats.errors == 1
        assert fleet.stats.quarantined == ["converge seed=2"]


class TestEngineRouting:
    """With ``mode`` unset the runner picks the engine: a group goes to
    the array program where ``lanes * (1 / workers - 0.25) >= 70`` and
    no deadline is set, and to the in-process loop or the supervised
    workers otherwise."""

    @pytest.mark.parametrize(
        "lanes, workers, pays",
        [
            (93, 1, False), (94, 1, True),
            (279, 2, False), (280, 2, True),
            # Not 840: 1/3 - 0.25 is not exact.
            (800, 3, False), (900, 3, True),
            (10**6, 4, False), (10**6, 8, False),
        ],
    )
    def test_the_rule(self, lanes, workers, pays):
        assert runner_mod._batch_pays(lanes, workers) is pays

    @pytest.fixture
    def built(self, monkeypatch):
        """The lanes whose payloads the array program builds, on a host
        that says it has four cores."""
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 4)
        lanes = []
        watch_payload_builds(monkeypatch, lambda lane, cell: lanes.append(lane))
        return lanes

    def test_narrow_groups_stay_off_the_array_program(self, built):
        spec = _spec(systems=tuple(SystemKind), seeds=tuple(range(1, 9)))
        fleet = run_fleet(spec, resamples=100)
        assert fleet.stats.executed == 6 * 8 and fleet.stats.errors == 0
        assert built == [] and fleet.stats.batched == 0

    @pytest.mark.parametrize(
        "cpus, kwargs, batched",
        [
            (4, dict(jobs=1), 96),
            (4, dict(jobs=2), 0),
            (4, dict(jobs=1, cell_timeout=5.0), 0),
            # Workers are the processes that can run at once.
            (1, dict(jobs=8), 96),
        ],
        ids=["one-worker", "two-workers", "deadline", "jobs-above-cores"],
    )
    def test_a_wide_group_goes_where_it_is_faster(
        self, cpus, kwargs, batched, built, monkeypatch
    ):
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: cpus)
        spec = _spec(seeds=tuple(range(1, 97)))
        fleet = run_fleet(spec, resamples=100, **kwargs)
        assert fleet.stats.executed == 96 and fleet.stats.errors == 0
        assert sorted(built) == list(range(batched))
        assert fleet.stats.batched == batched
        assert fleet.stats.payload()["batched"] == batched
        reference = run_fleet(spec, jobs=1, mode="scalar", resamples=100)
        assert reference.stats.batched == 0
        assert _group_payloads(fleet.groups) == _group_payloads(
            reference.groups
        )

    def test_a_pin_is_a_pin(self, built):
        fleet = run_fleet(_spec(), jobs=2, mode="batch", resamples=100)
        assert built == [0, 1, 2] and fleet.stats.batched == 3

    def test_a_deadline_covers_a_routed_fleet(self, built, monkeypatch):
        real_execute = runner_mod.execute_cell

        def execute(cell):  # inherited by the forked workers
            if cell.seed == 50:
                time.sleep(3.0)
            return real_execute(cell)

        monkeypatch.setattr(runner_mod, "execute_cell", execute)
        spec = _spec(seeds=tuple(range(1, 97)))
        start = time.perf_counter()
        fleet = run_fleet(spec, jobs=1, cell_timeout=0.2, resamples=100)
        assert time.perf_counter() - start < 5.0
        assert fleet.stats.timeouts == 1
        assert fleet.stats.quarantined == ["converge seed=50"]
        assert (fleet.groups[0].n, fleet.groups[0].failed) == (95, 1)
        assert built == [] and fleet.stats.batched == 0


def _traced_peak(run):
    """Peak traced bytes while ``run()`` executes (it may itself be what
    starts the tracing)."""
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_size(build):
    """Traced bytes of what ``build()`` returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return tracemalloc.get_traced_memory()[0] - before, built
    finally:
        tracemalloc.stop()


class TestFleetMemory:
    """A fleet keeps six floats of a cell, not its payload.

    Tracing the simulators themselves is not affordable here (their
    step loops are single functions of ~1000 lines, and tracemalloc
    resolves a line number per allocation: a 128-lane x 10 s batch
    takes 13 s traced against 0.3 s), so each test traces exactly the
    stage where payloads exist.
    """

    def test_batch_fleet_holds_no_payloads(self, monkeypatch):
        spec = _spec(seeds=tuple(range(1, 129)), duration=10.0)
        cells = expand_fleet(spec)
        text = canonical_json(execute_batch(cells[:1])[0])
        payload_bytes, _ = _traced_size(lambda: json.loads(text))
        # Tracing starts where the array program's step loop ends: what
        # is measured is the payload stage of each consumer.
        real_finalize = _BatchFlowRun._finalize

        def traced_finalize(run):
            tracemalloc.start()
            yield from real_finalize(run)

        monkeypatch.setattr(_BatchFlowRun, "_finalize", traced_finalize)
        fleet_peak = _traced_peak(
            lambda: run_fleet(spec, jobs=1, mode="batch", resamples=100)
        )
        cells_peak = _traced_peak(
            lambda: fleet_statistics(
                spec,
                run_cells(cells, jobs=1, mode="batch").summaries(),
                resamples=100,
            )
        )
        assert cells_peak - fleet_peak >= 0.5 * len(cells) * payload_bytes

    def test_scalar_fleet_peak_does_not_grow_by_payloads(self, monkeypatch):
        # Every cell "executes" to a fresh decode of one real 30 s
        # payload, so the trace sees what the harness holds and nothing
        # else.
        text = canonical_json(
            execute_cell(expand_fleet(_spec(duration=30.0))[0])
        )
        monkeypatch.setattr(
            runner_mod, "execute_cell", lambda cell: json.loads(text)
        )
        payload_bytes, _ = _traced_size(lambda: json.loads(text))

        def peak(seeds):
            spec = _spec(seeds=tuple(range(1, seeds + 1)), duration=30.0)
            tracemalloc.start()
            return _traced_peak(
                lambda: run_fleet(spec, jobs=1, mode="scalar", resamples=100)
            )

        # A further seed costs its Cell, key, positions and metric row
        # (4-5 KiB), where it used to cost a whole payload as well.
        assert (peak(256) - peak(32)) / 224 < payload_bytes / 8


class TestCacheSharding:
    def _filled(self, root, n=8):
        store = ResultCache(root)
        keys = []
        for seed in range(1, n + 1):
            key = f"{seed:064x}"
            store.put(key, {"seed": seed}, {"metric": float(seed)}, 0.1)
            keys.append(key)
        return store, keys

    def test_shard_of_is_content_addressed(self, tmp_path):
        store = ResultCache(tmp_path)
        key = "ab" * 32
        assert store.shard_of(key, 4) == int(key[:8], 16) % 4
        with pytest.raises(ValueError):
            store.shard_of(key, 0)

    def test_shard_partitions_all_entries(self, tmp_path):
        store, keys = self._filled(tmp_path / "src")
        dirs = [tmp_path / f"shard-{i}" for i in range(3)]
        counts = store.shard(dirs)
        assert sum(counts) == len(keys)
        for key in keys:
            shard = ResultCache(dirs[store.shard_of(key, 3)])
            entry = shard.get(key)
            assert entry is not None
            assert entry.summary == {"metric": float(int(key, 16))}

    def test_merge_restores_the_original_bytes(self, tmp_path):
        store, keys = self._filled(tmp_path / "src")
        dirs = [tmp_path / f"shard-{i}" for i in range(3)]
        store.shard(dirs)
        merged = ResultCache(tmp_path / "merged")
        result = merged.merge(dirs)
        assert result == {"merged": len(keys), "skipped": 0}
        for key in keys:
            assert (
                merged.path_for(key).read_bytes()
                == store.path_for(key).read_bytes()
            )

    def test_merge_skips_existing_and_self(self, tmp_path):
        store, keys = self._filled(tmp_path / "src", n=4)
        other = ResultCache(tmp_path / "other")
        other.merge([store.root])
        # Second merge: everything already present.
        assert other.merge([store.root]) == {"merged": 0, "skipped": 4}
        # Merging a cache into itself is a no-op.
        assert store.merge([store.root]) == {"merged": 0, "skipped": 0}

    def test_merge_replaces_a_corrupt_local_copy(self, tmp_path):
        # A local file that fails validation is not an entry: merge
        # must import the source's good copy rather than skip the key
        # and leave get() to delete the only local result.
        store, keys = self._filled(tmp_path / "src", n=2)
        local = ResultCache(tmp_path / "local")
        local.merge([store.root])
        bad = local.path_for(keys[0])
        bad.write_bytes(bad.read_bytes().replace(b"1.0", b"9.0"))
        assert local.merge([store.root]) == {"merged": 1, "skipped": 1}
        assert bad.read_bytes() == store.path_for(keys[0]).read_bytes()
        assert local.get(keys[0]).summary == {"metric": 1.0}

    def test_every_root_holds_only_key_files(self, tmp_path):
        # One file per entry, at path_for(key), and no subdirectory —
        # in the cache put() fills, in every shard and after a merge.
        store = ResultCache(tmp_path / "src")
        keys = [hashlib.sha256(b"%d" % seed).hexdigest() for seed in range(12)]
        for key in keys:
            store.put(key, {"key": key}, {"metric": 1.0}, 0.1)
        dirs = [tmp_path / f"shard-{i}" for i in range(3)]
        assert all(store.shard(dirs))
        merged = ResultCache(tmp_path / "merged")
        assert merged.merge(dirs) == {"merged": len(keys), "skipped": 0}
        for cache in (store, merged, *map(ResultCache, dirs)):
            assert sorted(cache.root.iterdir()) == [
                cache.path_for(entry.key) for entry in cache.entries()
            ]
        assert [entry.key for entry in merged.entries()] == sorted(keys)

    def test_sources_are_only_read(self, tmp_path):
        # A corrupt entry in somebody else's cache is skipped — neither
        # imported nor deleted; get() on one's own cache does delete.
        store, keys = self._filled(tmp_path / "src", n=4)
        bad = store.path_for(keys[0])
        bad.write_text(bad.read_text().replace("1.0", "9.0"))

        def snapshot():
            # Every file in the source, which must be its entries alone.
            assert sorted(store.root.iterdir()) == sorted(
                store.path_for(key) for key in keys
            )
            return {key: store.path_for(key).read_bytes() for key in keys}

        before = snapshot()
        store.root.chmod(0o555)
        try:
            merged = ResultCache(tmp_path / "merged")
            assert merged.merge([store.root]) == {"merged": 3, "skipped": 0}
            assert sum(store.shard([tmp_path / "a", tmp_path / "b"])) == 3
        finally:
            store.root.chmod(0o755)
        assert merged.get(keys[0]) is None
        assert snapshot() == before
        assert store.get(keys[0]) is None and not bad.exists()

    def test_merged_entries_are_runner_visible(self, tmp_path):
        # A summary computed elsewhere and merged in must satisfy the
        # runner's cache lookup for the same cell.
        spec = _spec(seeds=(1,))
        cells = expand_fleet(spec)
        run_cells(cells, cache=tmp_path / "remote", mode="batch")
        local = ResultCache(tmp_path / "local")
        local.merge([tmp_path / "remote"])
        report = run_cells(cells, cache=local, jobs=1)
        assert report.stats.cache_hits == 1
        assert report.stats.executed == 0
        assert local.get(cell_key(cells[0])) is not None


class TestFleetCli:
    def test_fleet_command_prints_table_and_json(self, tmp_path, capsys):
        out_json = tmp_path / "fleet.json"
        code = main([
            "fleet", "--scenarios", "driving", "--systems", "converge",
            "--seeds", "2", "--duration", "2",
            "--cache", str(tmp_path / "cache"), "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tput Mbps" in out and "converge" in out
        payload = json.loads(out_json.read_text())
        assert payload["spec"]["systems"] == ["converge"]
        assert payload["groups"][0]["n"] == 2

    def test_cache_shard_and_merge_commands(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main([
            "fleet", "--scenarios", "driving", "--systems", "converge",
            "--seeds", "2", "--duration", "2", "--cache", str(cache),
        ]) == 0
        out_dir = tmp_path / "shards"
        assert main([
            "cache", "shard", "--shards", "2", "--out", str(out_dir),
            "--cache", str(cache),
        ]) == 0
        assert "sharded 2 entries" in capsys.readouterr().out
        merged = tmp_path / "merged"
        assert main([
            "cache", "merge", str(out_dir / "shard-0"),
            str(out_dir / "shard-1"), "--cache", str(merged),
        ]) == 0
        assert "merged 2 entries" in capsys.readouterr().out
        assert len(list(ResultCache(merged).entries())) == 2
