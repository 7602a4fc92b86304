"""Tests for the parallel experiment runner and its result cache."""

import collections
import copy
import gc
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.export import result_to_dict
from repro.core.api import build_call_config
from repro.core.config import FecMode, SystemKind
from repro.core.session import CallResult
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.cells import (
    BuilderPaths,
    Cell,
    ConstantPaths,
    ScenarioPaths,
    canonical_json,
    canonicalize,
    cell_key,
    code_version,
    expand_grid,
    make_cell,
)
from repro.experiments.runner import (
    CellFailure,
    CellSummary,
    _Worker,
    _worker_main,
    execute_cell,
    results_of,
    run_cells,
    stream_cells,
)
from repro.flow.batch import batchable
from repro.metrics import MetricsCollector, summarize
from repro.metrics.collector import RenderedFrame
from repro.receiver.packet_buffer import PacketBufferConfig
from repro.receiver.session import ReceiverConfig

from tests.batch_spy import watch_payload_builds
from tests.normal_form import assert_same_payload

DURATION = 3.0


def _cell(system=SystemKind.CONVERGE, seed=1, **overrides):
    return make_cell(
        ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
        system,
        seed=seed,
        duration=DURATION,
        **overrides,
    )


def broken_paths(duration):
    raise RuntimeError("no such network")


def exit_paths(duration):
    # What an OOM kill looks like from outside: the worker is gone.
    os._exit(17)


# The handshake of the two-dying-workers test: its sink opens the gate
# file named here, and gated_exit_paths dies only once it is open.
HANDSHAKE_GATE = "REPRO_TEST_HANDSHAKE_GATE"
HANDSHAKE_DEADLINE = 30.0


def _await(condition, what):
    end = time.monotonic() + HANDSHAKE_DEADLINE
    while not condition():
        if time.monotonic() > end:
            raise AssertionError(f"handshake: {what} within {HANDSHAKE_DEADLINE}s")
        time.sleep(0.005)


def gated_exit_paths(duration):
    gate = Path(os.environ[HANDSHAKE_GATE])
    _await(gate.exists, "the sink started")
    os._exit(17)


def napping_paths(duration):
    time.sleep(0.25)
    return ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)).build(
        duration, 1
    )


def slow_worker_main(conn, store):
    # What the `spawn` start method costs every worker before it runs.
    time.sleep(0.25)
    _worker_main(conn, store)


def stubborn_paths(duration):
    # Swallows whatever is raised into it, as a retry loop around a
    # flaky call would: only a kill ends this cell early.
    end = time.monotonic() + 3.0
    while time.monotonic() < end:
        try:
            time.sleep(0.01)
        except Exception:
            pass
    raise RuntimeError("nobody stopped me")


def c_call_paths(duration):
    # One C call of ~2.7 s: a signal handler only runs between
    # bytecodes, so nothing raised into this frame lands before it
    # returns (time.sleep would not do: an alarm interrupts it).
    sum(range(2 * 10**8))
    raise RuntimeError("nobody stopped me")


class TestCellKey:
    def test_key_is_stable_across_processes(self):
        # The key must not depend on dict ordering, object identity or
        # PYTHONHASHSEED — only on the cell's content.
        cell = _cell(fec_mode=FecMode.WEBRTC_TABLE)
        clone = copy.deepcopy(cell)
        assert cell_key(cell) == cell_key(clone)

    def test_key_distinguishes_every_field(self):
        base = _cell()
        variants = [
            _cell(seed=2),
            _cell(system=SystemKind.SRTT),
            _cell(fec_mode=FecMode.NONE),
            make_cell(
                ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
                SystemKind.CONVERGE,
                seed=1,
                duration=DURATION + 1,
            ),
            make_cell(
                ScenarioPaths("driving"),
                SystemKind.CONVERGE,
                seed=1,
                duration=DURATION,
            ),
        ]
        keys = {cell_key(c) for c in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_label_does_not_change_identity(self):
        # A display label is presentation, but it changes the stored
        # payload (result labels), so it is part of the cell identity.
        assert cell_key(_cell(label="a")) != cell_key(_cell(label="b"))

    def test_salt_env_invalidates(self, monkeypatch):
        before = cell_key(_cell())
        monkeypatch.setenv("REPRO_CACHE_SALT", "fresh")
        assert cell_key(_cell()) != before

    def test_canonicalize_rejects_unknown(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_overrides_accept_dict_form(self):
        as_dict = Cell(
            paths=ScenarioPaths("driving"),
            overrides={"fec_mode": FecMode.NONE},
        )
        as_tuple = _cell()
        assert as_dict.override_kwargs() == {"fec_mode": FecMode.NONE}
        assert as_tuple.override_kwargs() == {}

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            make_cell(ScenarioPaths("driving"), SystemKind.CONVERGE,
                      duration=0.0)
        with pytest.raises(ValueError):
            make_cell(ScenarioPaths("driving"), SystemKind.CONVERGE,
                      num_streams=0)

    def test_builder_paths_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            BuilderPaths("no-colon-here").build(1.0, 1)

    def test_key_is_memoized_per_instance(self):
        # Repeat lookups return the *same* string object — the hash is
        # computed once per cell, not once per call site.
        cell = _cell()
        assert cell_key(cell) is cell_key(cell)
        # The memo is salt-aware: changing REPRO_CACHE_SALT recomputes.
        plain = cell_key(cell)
        os.environ["REPRO_CACHE_SALT"] = "memo-test"
        try:
            salted = cell_key(cell)
            assert salted != plain
            assert cell_key(cell) is salted
        finally:
            del os.environ["REPRO_CACHE_SALT"]
        assert cell_key(cell) == plain

    def test_resolved_is_memoized_and_copy_safe(self):
        cell = _cell()
        first = cell.resolved()
        assert cell.resolved() is first
        # The memo survives (deep)copy/pickle round trips without
        # leaking shared state into the clone's identity.
        clone = copy.deepcopy(cell)
        assert clone.resolved() == first
        assert cell_key(clone) == cell_key(cell)

    def test_resolved_computed_once_per_cell_per_run(self, tmp_path,
                                                     monkeypatch):
        # The runner touches the key/resolved form at several points
        # (dedup, cache lookup, store, payload); the memo must collapse
        # them to one canonicalization per cell.
        calls = []
        original = Cell._compute_resolved

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Cell, "_compute_resolved", counting)
        cells = [_cell(seed=seed) for seed in (1, 2)]
        report = run_cells(cells, cache=tmp_path, jobs=1)
        assert report.ok()
        per_cell = {}
        for instance in calls:
            per_cell[id(instance)] = per_cell.get(id(instance), 0) + 1
        # Worker processes may recompute on their side; in the driver
        # process each cell resolves exactly once.
        assert all(count == 1 for count in per_cell.values())
        assert len(per_cell) <= len(cells)


# An entry exactly as commit 650ef1b (the last with a hand-bumped
# ``CODE_VERSION``) wrote it for the cell below.
OLD_KEY = "789c6003c6ee8f28c5c5fe023c31b0fa712838daf1ce036e01b7131398860c3a"
OLD_ENTRY = (
    '{"cell":{"chaos":null,"duration":4.0,"fidelity":"flow","label":null,'
    '"num_streams":1,"overrides":{},"paths":{"__dataclass__":'
    '"repro.experiments.cells.ScenarioPaths","fields":{"networks":null,'
    '"scenario":"driving"}},"seed":7,"single_path_id":0,"system":"converge"},'
    '"checksum":"be3a43f1fe056f48032183b0d139c039c63bf69ad2912f681167d3e2'
    '07944911","code_version":"2026.10-1","created":1790980269.4993322,'
    '"key":"' + OLD_KEY + '","summary":{"label":"converge","summary":'
    '{"frames_rendered":96}},"wall_seconds":0.0125}'
)

PROBE = """
from repro.core.config import SystemKind
from repro.experiments.cells import (
    ScenarioPaths, cell_key, code_version, make_cell,
)
print(code_version())
for seed in (1, 7):
    print(cell_key(make_cell(ScenarioPaths("driving"), SystemKind.CONVERGE,
                             seed=seed, duration=4.0, fidelity="flow")))
"""


class TestCodeVersion:
    """Cache keys follow the simulated source, and nothing else."""

    @staticmethod
    def run_probe(src):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_SALT"}
        return subprocess.run(
            [sys.executable, "-c", PROBE],
            env={**env, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )

    def probe(self, src):
        """``[code_version, key, key]`` as a fresh interpreter on the
        tree at ``src`` computes them."""
        done = self.run_probe(src)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_keys_move_with_simulated_source_only(self, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(
            Path(__file__).resolve().parent.parent / "src" / "repro",
            src / "repro",
        )
        pristine = self.probe(src)
        # Where the tree lives is not part of it.
        assert pristine[0] == code_version()
        assert pristine[2] == cell_key(
            make_cell(ScenarioPaths("driving"), SystemKind.CONVERGE,
                      seed=7, duration=4.0, fidelity="flow")
        )
        # The harness around the simulation: no key moves.
        for name in ("cli.py", "experiments/fleet.py", "experiments/cache.py"):
            with open(src / "repro" / name, "a") as source:
                source.write("# an edit\n")
        assert self.probe(src) == pristine
        # Line ends are the checkout's business.
        gcc = src / "repro" / "cc" / "gcc.py"
        gcc.write_bytes(gcc.read_bytes().replace(b"\n", b"\r\n"))
        assert self.probe(src) == pristine
        # Simulated code: the digest and every key move.
        with open(gcc, "a") as source:
            source.write("# an edit\n")
        edited = self.probe(src)
        assert all(new != old for new, old in zip(edited, pristine))
        # A source that cannot be read is an error, never a fallback.
        (src / "repro" / "experiments" / "sweeps.py").unlink()
        done = self.run_probe(src)
        assert done.returncode != 0 and "FileNotFoundError" in done.stderr

    def test_digest_is_computed_once(self):
        assert len(code_version()) == 64
        assert code_version() is code_version()

    def test_an_entry_of_the_last_hand_bumped_version_is_cold_not_corrupt(
        self, tmp_path
    ):
        # Every key moved once when the salt became a digest, so old
        # entries are never asked for; under their own keys they still
        # validate (validation never read ``code_version``) and ``ls``
        # marks them stale.
        cell = make_cell(ScenarioPaths("driving"), SystemKind.CONVERGE,
                         seed=7, duration=4.0, fidelity="flow")
        assert cell_key(cell) != OLD_KEY
        store = ResultCache(tmp_path)
        target = store.path_for(OLD_KEY)
        target.write_text(OLD_ENTRY)
        assert store.get(cell_key(cell)) is None
        entry = store.get(OLD_KEY)
        assert entry.cell == cell.resolved()
        assert entry.code_version == "2026.10-1"
        assert [row["stale"] for row in store.ls()] == [True]


class TestExpandGrid:
    def test_deterministic_order(self):
        grid = expand_grid(
            [ScenarioPaths("driving"), ScenarioPaths("walking")],
            [SystemKind.CONVERGE, SystemKind.SRTT],
            [1, 2],
            duration=DURATION,
        )
        assert len(grid) == 8
        assert [c.seed for c in grid[:2]] == [1, 2]
        assert grid[0].system is SystemKind.CONVERGE
        assert grid[2].system is SystemKind.SRTT
        assert grid[0].paths.scenario == "driving"
        assert grid[4].paths.scenario == "walking"


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        store = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, {"system": "converge"}, {"x": 1.5}, 0.25)
        entry = store.get(key)
        assert entry is not None
        assert entry.summary == {"x": 1.5}
        assert entry.code_version == code_version()
        assert entry.wall_seconds == 0.25
        assert len(store) == 1

    def test_miss_and_torn_file(self, tmp_path):
        store = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        assert store.get(key) is None
        target = store.path_for(key)
        target.write_text('{"key": "cd00", "summ')  # torn write
        assert store.get(key) is None

    def test_wrong_key_field_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        target = store.path_for(key)
        target.write_text(json.dumps({"key": "other", "summary": {}}))
        assert store.get(key) is None

    def test_ls_and_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        for head in ("aa", "bb"):
            store.put(
                head + "0" * 62,
                {"system": "srtt", "label": None, "seed": 3,
                 "duration": 4.0},
                {},
                0.1,
            )
        rows = store.ls()
        assert len(rows) == 2
        assert rows[0]["system"] == "srtt"
        assert rows[0]["label"] == "srtt"  # falls back to system
        assert not rows[0]["stale"]
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert store.ls() == []
        assert store.clear() == 0

    def test_clear_removes_stale_temp_files(self, tmp_path):
        # A writer that crashed between mkstemp and rename leaves a
        # *.tmp behind; it is not an entry, and clear() removes it too.
        store = ResultCache(tmp_path / "cache")
        key = "aa" + "0" * 62
        store.put(key, {"system": "srtt"}, {}, 0.1)
        (store.root / "tmp-crashed.tmp").write_text('{"key": "aa')
        assert store.clear() == 1
        assert list(store.root.iterdir()) == []

    def test_stored_text_is_the_canonical_entry(self, tmp_path):
        # put() splices the once-encoded summary into the entry; the
        # result must be exactly canonical_json of the whole entry.
        store = ResultCache(tmp_path)
        key = "ab" + "4" * 62
        summary = {"z": [1.5, -0.0, 1e-300], "a": {"k": None}, "s": "\u00e9"}
        text = store.put(key, {"system": "converge"}, summary, 0.25).read_text()
        data = json.loads(text)
        assert canonical_json(data) == text
        assert sorted(data) == [
            "cell", "checksum", "code_version", "created", "key", "summary",
            "wall_seconds",
        ]
        assert data["summary"] == summary and data["wall_seconds"] == 0.25

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"

    def test_tampered_summary_is_deleted_and_misses(self, tmp_path):
        # The checksum covers the canonical summary bytes: silent
        # corruption (disk fault, hand edit) must never be served.
        store = ResultCache(tmp_path)
        key = "ab" + "1" * 62
        store.put(key, {"system": "converge"}, {"x": 1.5}, 0.25)
        target = store.path_for(key)
        data = json.loads(target.read_text())
        data["summary"]["x"] = 99.0  # tamper without updating checksum
        target.write_text(json.dumps(data))
        assert store.get(key) is None
        assert not target.exists(), "corrupt entry must be deleted"

    def test_truncated_entry_is_deleted_and_misses(self, tmp_path):
        store = ResultCache(tmp_path)
        key = "ab" + "2" * 62
        store.put(key, {"system": "converge"}, {"x": 1.5}, 0.25)
        target = store.path_for(key)
        target.write_text(target.read_text()[:40])
        assert store.get(key) is None
        assert not target.exists()

    def test_missing_checksum_is_a_miss(self, tmp_path):
        # Entries from before the integrity field existed are treated
        # as corrupt: one re-simulation, not a crash or stale data.
        store = ResultCache(tmp_path)
        key = "ab" + "3" * 62
        target = store.path_for(key)
        target.write_text(json.dumps({"key": key, "summary": {"x": 1}}))
        assert store.get(key) is None
        assert not target.exists()

    def test_corrupt_entry_recovers_via_rerun(self, tmp_path):
        store = ResultCache(tmp_path)
        first = run_cells([_cell()], jobs=1, cache=store)
        key = first.outcomes[0].key
        store.path_for(key).write_text("not json at all")
        again = run_cells([_cell()], jobs=1, cache=store)
        assert again.stats.cache_hits == 0
        assert again.stats.executed == 1
        assert results_of(again)[0].data == results_of(first)[0].data


class TestRunCells:
    def test_serial_parallel_and_cached_are_identical(self, tmp_path):
        cells = [
            _cell(system=system, seed=seed)
            for system in (SystemKind.CONVERGE, SystemKind.SRTT)
            for seed in (1, 2)
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2, cache=tmp_path / "cache")
        cached = run_cells(cells, jobs=2, cache=tmp_path / "cache")
        serial_data = [s.data for s in results_of(serial)]
        parallel_data = [s.data for s in results_of(parallel)]
        cached_data = [s.data for s in results_of(cached)]
        assert serial_data == parallel_data
        assert serial_data == cached_data
        # And byte-for-byte through the canonical encoding, with the
        # same types and key order: fresh, pooled and decoded-from-
        # cache payloads are one shape with no normalization pass.
        for fresh, pooled, hit in zip(serial_data, parallel_data, cached_data):
            assert_same_payload(fresh, pooled)
            assert_same_payload(fresh, hit)

    def test_grid_pool_and_serial_stay_byte_identical(self):
        # Regression for the R006 audit: everything run_cells submits
        # to the pool must be picklable, and fanning a grid out across
        # workers must not perturb a single byte of any result.
        grid = expand_grid(
            [ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0))],
            [SystemKind.CONVERGE, SystemKind.SRTT],
            [1, 2],
            duration=2.0,
        )
        serial = run_cells(grid, jobs=1)
        pooled = run_cells(grid, jobs=2)
        assert [canonical_json(s.data) for s in results_of(serial)] == [
            canonical_json(s.data) for s in results_of(pooled)
        ]

    def test_worker_submission_is_picklable(self, tmp_path):
        # A worker is (function, its cache) at start and a chunk down
        # its pipe; a lambda or nested function here would die with the
        # `spawn` start method but only on parallel runs, which is
        # exactly what lint rule R006 guards against.
        import pickle

        cell = _cell()
        function, chunk, store = pickle.loads(
            pickle.dumps(
                (_worker_main, [(cell_key(cell), cell)],
                 ResultCache(tmp_path))
            )
        )
        ours, theirs = multiprocessing.Pipe()
        ours.send(chunk)
        ours.send(None)
        function(theirs, store)
        assert ours.recv() is None  # "up and holding the chunk"
        verdict = ours.recv()
        ours.close()
        assert theirs.closed
        assert verdict["ok"] is True
        # The worker, not the parent, stores what it computed.
        assert store.get(cell_key(cell)).summary == verdict["summary"]

    def test_chunked_pool_writes_the_entries_serial_writes(
        self, tmp_path, monkeypatch
    ):
        # More workers than this box has cores, all writing one cache.
        cells = [_quick_cell(seed) for seed in range(1, 97)]
        chunks = _spy_on_submits(monkeypatch)
        pooled = run_cells(cells, jobs=4, cache=tmp_path / "pool")
        assert max(len(chunk) for chunk in chunks) > 1
        assert sorted(k for chunk in chunks for k in chunk) == sorted(
            o.key for o in pooled.outcomes
        )
        serial = run_cells(cells, jobs=1, cache=tmp_path / "serial")
        assert pooled.stats.executed == serial.stats.executed == len(cells)
        assert [canonical_json(s.data) for s in results_of(pooled)] == [
            canonical_json(s.data) for s in results_of(serial)
        ]

        def stored(root):
            store = ResultCache(root)
            entries = {}
            for entry in store.entries():
                data = json.loads(store.path_for(entry.key).read_text())
                # Wall-clock bookkeeping is the only thing that may differ.
                del data["created"], data["wall_seconds"]
                entries[entry.key] = data
            return entries

        assert stored(tmp_path / "pool") == stored(tmp_path / "serial")
        assert len(stored(tmp_path / "pool")) == len(cells)

    def test_cache_reuse_rate(self, tmp_path):
        cells = [_cell(seed=seed) for seed in (1, 2, 3)]
        first = run_cells(cells, jobs=1, cache=tmp_path)
        assert first.stats.executed == 3
        assert first.stats.cache_hits == 0
        second = run_cells(cells, jobs=1, cache=tmp_path)
        assert second.stats.executed == 0
        assert second.stats.cache_hit_rate >= 0.9
        assert second.stats.cache_hits == 3

    def test_duplicate_cells_run_once(self):
        cell = _cell()
        report = run_cells([cell, cell, cell], jobs=1)
        assert report.stats.cells_total == 3
        assert report.stats.cells_unique == 1
        assert report.stats.executed == 1
        data = [s.data for s in results_of(report)]
        assert data[0] == data[1] == data[2]

    def test_failure_is_isolated(self):
        bad = make_cell(
            BuilderPaths("tests.test_runner:broken_paths"),
            SystemKind.CONVERGE,
            seed=1,
            duration=DURATION,
        )
        good = _cell()
        report = run_cells([bad, good], jobs=1)
        assert not report.outcomes[0].ok
        assert report.outcomes[0].error["type"] == "RuntimeError"
        assert "no such network" in report.outcomes[0].error["message"]
        assert report.outcomes[1].ok
        assert report.stats.errors == 1
        assert report.stats.executed == 1
        with pytest.raises(CellFailure) as exc_info:
            results_of(report)
        assert "RuntimeError" in str(exc_info.value)

    def test_flow_cell_with_unmodelled_settings_is_an_error(self):
        # The flow model has no packet buffer and no NACK switch: a
        # cell that sets either is an error, not a silent copy of the
        # default cell.  The playout deadline it does model.
        small_buffer = ReceiverConfig(
            packet_buffer=PacketBufferConfig(capacity_packets=64)
        )
        cells = [
            _cell(fidelity="flow", receiver=small_buffer),
            _cell(fidelity="flow", nack_enabled=False),
            _cell(
                fidelity="flow",
                receiver=ReceiverConfig(max_playout_latency=0.4),
            ),
        ]
        buffer, nack, deadline = run_cells(cells, jobs=1).outcomes
        assert not buffer.ok
        assert buffer.error["type"] == "ValueError"
        assert "receiver.packet_buffer" in buffer.error["message"]
        assert not nack.ok
        assert "nack_enabled=False" in nack.error["message"]
        assert deadline.ok
        # The array program takes no cell with an override, so the
        # scalar loop's check is the only one.
        assert not any(map(batchable, cells))

    def test_failed_cells_are_not_cached(self, tmp_path):
        bad = make_cell(
            BuilderPaths("tests.test_runner:broken_paths"),
            SystemKind.CONVERGE,
            seed=1,
            duration=DURATION,
        )
        run_cells([bad], jobs=1, cache=tmp_path)
        assert len(ResultCache(tmp_path)) == 0
        report = run_cells([bad], jobs=1, cache=tmp_path)
        assert report.stats.cache_hits == 0

    def test_progress_lines(self, tmp_path, capsys):
        run_cells([_cell(), _cell(seed=2)], jobs=1, cache=tmp_path,
                  progress=True)
        err = capsys.readouterr().err
        assert "[1/2]" in err
        assert "[2/2]" in err
        assert "sweep:" in err
        # Progress lines carry a pace estimate plus an ETA while cells
        # remain; the final stats line reports overall throughput.
        assert "cells/s" in err
        assert "ETA" in err

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        report = run_cells([_cell()], jobs=None)
        assert report.stats.jobs == 3

    def test_jobs_env_that_is_not_a_number_is_named(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            run_cells([_cell()], jobs=None)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_jobs_env_below_one_is_named(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            run_cells([_cell()], jobs=None)

    def test_summary_accessors(self):
        summary = results_of(run_cells([_cell(seed=5)], jobs=1))[0]
        assert summary.config["seed"] == 5
        assert summary.frames_rendered >= 0
        assert summary.average_fps >= 0
        assert len(summary.series_values("fps")) == int(DURATION)
        norm = summary.normalized()
        assert set(norm) == {"throughput", "fps", "stall", "qp"}
        assert isinstance(summary.psnr_p10, float)
        # 48 frames in 2 s: the §6 target of 24 fps.
        metrics = MetricsCollector()
        metrics.rendered = [
            RenderedFrame(1, i, i / 30, i / 30 + 0.1, 4000, False, False, 30.0)
            for i in range(48)
        ]
        config = build_call_config(SystemKind.CONVERGE, duration=2.0)
        result = CallResult(config, summarize(metrics, duration=2.0), metrics)
        norm = CellSummary(result_to_dict(result)).normalized()
        assert norm["fps"] == pytest.approx(1.0)
        assert 0.0 <= norm["qp"] <= 1.0

    def test_execute_cell_matches_runner(self):
        cell = _cell(seed=7)
        via_runner = results_of(run_cells([cell], jobs=1))[0].data
        assert_same_payload(execute_cell(cell), via_runner)


def _quick_cell(seed, paths=None):
    # Flow fidelity, 2 simulated seconds: about a millisecond of host
    # time, so the pool packs many of these into one task.
    return make_cell(
        paths or ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
        SystemKind.CONVERGE,
        seed=seed,
        duration=2.0,
        fidelity="flow",
    )


class TestStreamCells:
    """The one driver: every unique cell reaches the sink exactly once,
    with its input positions, and is the sink's to keep or drop."""

    def test_batched_payloads_are_built_as_the_sink_takes_them(
        self, tmp_path, monkeypatch
    ):
        events = []
        watch_payload_builds(
            monkeypatch, lambda lane, cell: events.append(("built", lane))
        )
        store = ResultCache(tmp_path)

        def sink(outcome, positions):
            # Already stored: ``put`` happens per cell, at delivery.
            assert store.get(outcome.key) is not None
            events.append(("sunk", positions[0]))

        cells = [_quick_cell(seed) for seed in (1, 2, 3, 4)]
        stats = stream_cells(cells, sink, jobs=1, cache=store, mode="batch")
        assert stats.executed == 4
        assert events == [
            (what, lane) for lane in range(4) for what in ("built", "sunk")
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicates_reach_the_sink_once_with_every_position(self, jobs):
        a, b, c = (_quick_cell(seed) for seed in (1, 2, 3))
        cells = [a, b, a, c, b]
        seen = {}

        def sink(outcome, positions):
            assert outcome.cell.seed not in seen
            seen[outcome.cell.seed] = list(positions)

        stats = stream_cells(cells, sink, jobs=jobs)
        assert seen == {1: [0, 2], 2: [1, 4], 3: [3]}
        assert stats.cells_total == 5 and stats.cells_unique == 3
        # run_cells is the sink that files them back in input order.
        report = run_cells(cells, jobs=jobs)
        assert [o.cell.seed for o in report.outcomes] == [1, 2, 1, 3, 2]
        assert report.outcomes[0] is report.outcomes[2]
        assert report.outcomes[1] is report.outcomes[4]

    def test_cache_hits_are_delivered_first(self, tmp_path):
        cells = [_quick_cell(seed) for seed in (1, 2, 3)]
        run_cells([cells[2]], jobs=1, cache=tmp_path)
        order = []
        stats = stream_cells(
            cells,
            lambda outcome, positions: order.append(
                (positions[0], outcome.cached)
            ),
            jobs=1,
            cache=tmp_path,
        )
        assert order == [(2, True), (0, False), (1, False)]
        assert stats.cache_hits == 1 and stats.executed == 2


def _spy_on_submits(monkeypatch):
    """Record the cell keys of every chunk sent down a worker's pipe."""
    chunks = []
    give = _Worker.give

    def spy(worker, chunk):
        chunks.append([key for key, _cell in chunk])
        give(worker, chunk)

    monkeypatch.setattr(_Worker, "give", spy)
    return chunks


def _slow_cell(seed=1):
    # 120 simulated seconds: reliably slower than a 50 ms wall budget.
    return make_cell(
        ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
        SystemKind.CONVERGE,
        seed=seed,
        duration=120.0,
    )


class TestTimeoutAndQuarantine:
    def test_timeout_yields_structured_error(self):
        report = run_cells([_slow_cell()], jobs=1, cell_timeout=0.05,
                           retries=0)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert outcome.error["type"] == "CellTimeout"
        assert "0.05s" in outcome.error["message"]
        assert 0.05 <= outcome.wall_seconds < 1.0
        assert report.stats.timeouts == 1 and report.stats.retried == 0

    def test_generous_timeout_leaves_result_intact(self):
        cell = _cell()
        unguarded = run_cells([cell], jobs=1)
        guarded = run_cells([cell], jobs=1, cell_timeout=600.0)
        assert guarded.stats.timeouts == 0
        assert_same_payload(
            results_of(guarded)[0].data, results_of(unguarded)[0].data
        )

    def test_serial_retry_then_quarantine(self):
        report = run_cells([_slow_cell()], jobs=1, cell_timeout=0.05)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert outcome.error["type"] == "CellTimeout"
        assert report.stats.retried == 1  # one retry before quarantine
        # Both attempts timed out but they are the same poison cell:
        # timeouts counts cells, not attempts.
        assert report.stats.timeouts == 1
        assert report.stats.errors == 1
        assert len(report.stats.quarantined) == 1
        assert "converge" in report.stats.quarantined[0]

    def test_pool_retry_then_quarantine(self):
        cells = [_slow_cell(seed=s) for s in (1, 2)]
        report = run_cells(cells, jobs=2, cell_timeout=0.1)
        assert all(not o.ok for o in report.outcomes)
        assert report.stats.retried == 2
        assert report.stats.timeouts == 2  # one per cell, not per attempt
        assert sorted(report.stats.quarantined) == [
            "converge seed=1", "converge seed=2",
        ]

    @pytest.mark.parametrize(
        "kind, error_type, timeouts, retried",
        [
            # It would raise again: quarantined at once.
            ("raises", "RuntimeError", 0, 0),
            ("times-out", "CellTimeout", 1, 1),
            ("kills-worker", "WorkerDied", 0, 1),
        ],
    )
    def test_poison_cell_in_a_chunk_is_the_only_casualty(
        self, kind, error_type, timeouts, retried, monkeypatch
    ):
        poison = {
            "raises": _builder_cell("broken_paths"),
            "times-out": _slow_cell(seed=99),
            "kills-worker": _builder_cell("exit_paths"),
        }[kind]
        cells = [_quick_cell(seed) for seed in range(1, 65)]
        cells.insert(20, poison)
        chunks = _spy_on_submits(monkeypatch)
        report = run_cells(cells, jobs=2, cell_timeout=0.3)
        # It went out in company (the first chunk that carried it)...
        first = next(c for c in chunks if cell_key(poison) in c)
        assert len(first) > 1
        # ...and is the only cell that did not come back.
        bad = [o for o in report.outcomes if not o.ok]
        assert [o.key for o in bad] == [cell_key(poison)]
        assert bad[0].error["type"] == error_type
        assert len(report.outcomes) == len(cells)
        assert report.stats.executed == len(cells) - 1
        assert report.stats.retried == retried
        assert report.stats.timeouts == timeouts
        assert report.stats.quarantined == ["converge seed=99"]

    def test_timeouts_count_cells_not_attempts(self):
        # Regression: RunStats used to bump ``timeouts`` on every
        # timed-out attempt, so one poison cell plus its automatic
        # retry reported two timeouts and the summary line overstated
        # the blast radius.  note_timeout dedups on the cell key.
        from repro.experiments.runner import RunStats

        stats = RunStats()
        stats.note_timeout("cell-a")
        stats.note_timeout("cell-a")  # the retry of the same cell
        stats.note_timeout("cell-b")
        assert stats.timeouts == 2

    def test_quarantine_reported_not_raised(self, capsys):
        # The sweep itself must complete; only results_of raises.  The
        # budget has to split the two cells cleanly: the healthy 3 s
        # cell simulates in ~50 ms, the 120 s poison cell in seconds,
        # so 0.5 s gives an order of magnitude of margin either way
        # (0.05 s made the healthy cell race the clock under load).
        report = run_cells(
            [_slow_cell(), _cell()], jobs=1, cell_timeout=0.5,
            progress=True,
        )
        assert report.outcomes[1].ok  # the healthy cell still ran
        err = capsys.readouterr().err
        assert "quarantined 1 poison cell(s)" in err
        with pytest.raises(CellFailure):
            results_of(report)

    def test_deterministic_failure_is_not_retried(self):
        # A simulation is a pure function of its cell, so a second
        # attempt would raise again: in-process and in a worker alike.
        bad = make_cell(
            BuilderPaths("tests.test_runner:broken_paths"),
            SystemKind.CONVERGE,
            seed=1,
            duration=DURATION,
        )
        for cell_timeout in (None, 600.0):
            report = run_cells([bad], jobs=1, cell_timeout=cell_timeout)
            assert report.stats.retried == 0
            assert report.stats.timeouts == 0
            assert report.outcomes[0].error["type"] == "RuntimeError"

    def test_timed_out_cells_are_not_cached(self, tmp_path):
        run_cells([_slow_cell()], jobs=1, cache=tmp_path,
                  cell_timeout=0.05)
        assert len(ResultCache(tmp_path)) == 0


class PutLog(ResultCache):
    """A cache that also logs every ``put`` (workers append one short
    line each: atomic under ``O_APPEND``), so a test can count
    executions per cell across processes."""

    def put(self, key, cell, summary, wall_seconds):
        with open(self.root / "puts.log", "a") as log:
            log.write(key + "\n")
        return super().put(key, cell, summary, wall_seconds)


def _builder_cell(name, seed=99):
    return _quick_cell(seed, BuilderPaths(f"tests.test_runner:{name}"))


def _watch_workers(monkeypatch):
    """Every ``_Worker`` a run creates, for a look at it afterwards."""
    seen = []
    init = _Worker.__init__

    def spy(worker, store):
        init(worker, store)
        seen.append(worker)

    monkeypatch.setattr(_Worker, "__init__", spy)
    return seen


class TestSupervisor:
    """The parent owns the clock and knows each worker's cell: a
    deadline kills, blame is exact, nothing outlives the call."""

    @pytest.mark.parametrize("builder", ["stubborn_paths", "c_call_paths"])
    def test_a_deadline_ends_a_cell_whatever_it_is_doing(self, builder):
        # Neither can be ended from inside its own process: one
        # swallows the exception, the other is not running bytecode.
        start = time.perf_counter()
        report = run_cells(
            [_builder_cell(builder)], jobs=1, cell_timeout=0.2
        )
        assert time.perf_counter() - start < 1.0
        assert report.outcomes[0].error["type"] == "CellTimeout"
        assert report.stats.timeouts == 1 and report.stats.retried == 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the slow start is patched in, which only a fork inherits",
    )
    def test_a_workers_start_up_is_not_its_first_cells_time(
        self, monkeypatch
    ):
        # 0.25 s to come up, 0.25 s of cell, a 0.4 s budget: the clock
        # starts when the worker says it holds the chunk.
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_worker_main", slow_worker_main)
        report = run_cells(
            [_builder_cell("napping_paths")], jobs=1, cell_timeout=0.4
        )
        assert report.ok() and report.stats.timeouts == 0

    def test_a_deadline_holds_off_the_main_thread(self):
        # Where no signal handler can be installed.
        reports = []
        thread = threading.Thread(
            target=lambda: reports.append(
                run_cells([_slow_cell()], jobs=1, cell_timeout=0.05,
                          retries=0)
            )
        )
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive()
        assert reports[0].outcomes[0].error["type"] == "CellTimeout"

    def test_a_deadline_holds_with_a_gc_callback_installed(self):
        # Hypothesis installs one; an exception raised into it is
        # discarded by the interpreter and the cell runs on.
        cell = make_cell(
            ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
            SystemKind.CONVERGE,
            duration=4000.0,
            fidelity="flow",
        )

        def on_collect(phase, info):
            pass

        gc.callbacks.append(on_collect)
        try:
            for _ in range(20):
                start = time.perf_counter()
                report = run_cells(
                    [cell], jobs=1, cell_timeout=0.05, retries=0
                )
                assert time.perf_counter() - start < 0.5
                assert report.outcomes[0].error["type"] == "CellTimeout"
        finally:
            gc.callbacks.remove(on_collect)

    def test_blame_is_exact_on_a_sweep_with_five_poison_cells(
        self, tmp_path
    ):
        poison = {
            _builder_cell("broken_paths", 901): "RuntimeError",
            _builder_cell("exit_paths", 902): "WorkerDied",
            _slow_cell(seed=903): "CellTimeout",
            _slow_cell(seed=904): "CellTimeout",
            _builder_cell("stubborn_paths", 905): "CellTimeout",
        }
        cells = [_quick_cell(seed) for seed in range(1, 401)]
        for place, cell in zip((40, 120, 200, 280, 360), poison):
            cells.insert(place, cell)
        store = PutLog(tmp_path)
        start = time.perf_counter()
        # More workers than cores.
        report = run_cells(cells, jobs=6, cache=store, cell_timeout=0.3)
        # 7-8 s with the deadline as a signal and suspects re-run one
        # task at a time; about 1.3 s supervised.
        assert time.perf_counter() - start < 5.0
        bad = {o.cell: o.error["type"] for o in report.outcomes if not o.ok}
        assert bad == poison
        assert "exit code 17" in report.outcomes[120].error["message"]
        assert report.stats.executed == 400
        assert report.stats.errors == 5 and report.stats.timeouts == 3
        # One re-run for each cell that was lost, none for the one
        # that raised.
        assert report.stats.retried == 4
        # No healthy cell ran twice, whatever died next to it.
        puts = collections.Counter(
            (tmp_path / "puts.log").read_text().split()
        )
        assert set(puts.values()) == {1}
        assert set(puts) == {o.key for o in report.outcomes if o.ok}
        assert multiprocessing.active_children() == []

    def test_two_workers_dying_in_one_wait_round_are_both_named(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments import runner

        rounds = []

        def wait(conns, timeout=None):
            # The rounds are this wait's, not the OS scheduler's: one
            # ready pipe a round, except that a builder's death is held
            # back until the other builder's pipe is ready too, and
            # both come back in one round.
            ready = runner_wait(conns, timeout)
            builders = [w for w in workers[1:] if w.conn in conns]
            if any(not w.process.is_alive() for w in builders):
                _await(
                    lambda: not any(w.process.is_alive() for w in builders),
                    "the other builder exited",
                )
                ready = runner_wait([w.conn for w in builders], None)
                assert len(ready) == len(builders)
            else:
                ready = ready[:1]
            rounds.append(len(ready))
            return ready

        runner_wait = runner.wait
        monkeypatch.setattr(runner, "wait", wait)
        # workers[0] runs the quick cell, workers[1:] the two builders.
        workers = _watch_workers(monkeypatch)
        gate = tmp_path / "sink-started"
        monkeypatch.setenv(HANDSHAKE_GATE, str(gate))
        outcomes = {}

        def sink(outcome, positions):
            outcomes[positions[0]] = outcome
            if outcome.ok:
                # Both die while the parent is busy here: the builders
                # exit once the gate opens, and the sink returns only
                # after every worker has exited.
                gate.touch()
                _await(
                    lambda: not any(w.process.is_alive() for w in workers),
                    "both workers exited",
                )

        cells = [
            _quick_cell(1),
            _builder_cell("gated_exit_paths", 2),
            _builder_cell("gated_exit_paths", 3),
        ]
        stats = stream_cells(cells, sink, jobs=3, retries=0)
        assert max(rounds) == 2
        assert outcomes[0].ok
        for index in (1, 2):
            assert outcomes[index].error["type"] == "WorkerDied"
            assert "exit code 17" in outcomes[index].error["message"]
        assert stats.quarantined == ["converge seed=2", "converge seed=3"]

    @pytest.mark.parametrize(
        "failure", [None, ValueError, KeyboardInterrupt]
    )
    def test_no_worker_outlives_the_call(self, failure, monkeypatch):
        workers = _watch_workers(monkeypatch)
        delivered = []

        def sink(outcome, positions):
            delivered.append(outcome)
            if failure is not None and len(delivered) == 3:
                raise failure("from the sink")

        cells = [_quick_cell(seed) for seed in range(1, 33)]
        if failure is None:
            stream_cells(cells, sink, jobs=4)
            assert len(delivered) == len(cells)
        else:
            # Two workers are still on a cell when the sink raises.
            cells[:0] = [_slow_cell(seed=1), _slow_cell(seed=2)]
            with pytest.raises(failure):
                stream_cells(cells, sink, jobs=4)
        assert len(workers) >= 4
        assert not any(worker.process.is_alive() for worker in workers)
        assert all(worker.conn.closed for worker in workers)
        assert multiprocessing.active_children() == []
