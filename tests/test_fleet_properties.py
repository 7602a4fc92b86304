"""Property-based tests for fleet sharding and batch execution.

Two invariants, fuzzed rather than hand-picked:

- *Shard/merge invariance*: a fleet's statistics are a pure function
  of the spec and the per-cell summaries, so a cache sharded into N
  pieces and merged back in *any* order yields byte-identical fleet
  reports — and byte-identical cache entries — to the unsharded run.
  This is what makes `repro fleet` splittable across machines.
- *Mode invariance*: for any small population of flow cells,
  ``run_cells(mode="batch")`` and ``mode="scalar"`` produce identical
  payloads, byte for byte.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemKind
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    Fidelity,
    ScenarioPaths,
    canonical_json,
    make_cell,
)
from repro.experiments.fleet import (
    FleetSpec,
    expand_fleet,
    fleet_statistics,
)
from repro.experiments.runner import results_of, run_cells

DURATION = 2.0

# One small fleet, executed once and reused by every shard/merge
# example (the property varies the partitioning, not the simulation).
_BASE_SPEC = FleetSpec(
    scenarios=("driving",),
    systems=(SystemKind.CONVERGE, SystemKind.WEBRTC),
    seeds=(1, 2, 3),
    duration=DURATION,
    fidelity=Fidelity.FLOW,
)
_BASE_CACHE: Path = Path(tempfile.mkdtemp(prefix="fleet-prop-base-"))
_BASE_REPORT = None


def _base():
    global _BASE_REPORT
    if _BASE_REPORT is None:
        report = run_cells(
            expand_fleet(_BASE_SPEC), cache=_BASE_CACHE, mode="batch"
        )
        assert report.ok()
        _BASE_REPORT = report
    return _BASE_REPORT


def _cache_bytes(root: Path) -> dict:
    store = ResultCache(root)
    return {e.key: store.path_for(e.key).read_bytes() for e in store.entries()}


@given(
    shards=st.integers(min_value=1, max_value=4),
    order_seed=st.randoms(use_true_random=False),
)
@settings(max_examples=10, deadline=None)
def test_shard_merge_order_invariance(shards, order_seed):
    base = _base()
    baseline = [
        g.payload()
        for g in fleet_statistics(_BASE_SPEC, base.summaries())
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        source = ResultCache(_BASE_CACHE)
        dirs = [tmp_path / f"shard-{i}" for i in range(shards)]
        counts = source.shard(dirs)
        assert sum(counts) == _BASE_SPEC.cell_count
        order_seed.shuffle(dirs)
        merged = ResultCache(tmp_path / "merged")
        result = merged.merge(dirs)
        assert result["merged"] == _BASE_SPEC.cell_count
        # Bytes survive the shard -> merge round trip exactly.
        assert _cache_bytes(tmp_path / "merged") == _cache_bytes(_BASE_CACHE)
        # And the fleet report computed from the merged cache is
        # byte-identical to the unsharded baseline.
        report = run_cells(
            expand_fleet(_BASE_SPEC), cache=merged, jobs=1
        )
        assert report.stats.cache_hits == _BASE_SPEC.cell_count
        regrouped = [
            g.payload()
            for g in fleet_statistics(_BASE_SPEC, report.summaries())
        ]
        assert canonical_json(regrouped) == canonical_json(baseline)


def teardown_module(module):
    shutil.rmtree(_BASE_CACHE, ignore_errors=True)


@given(
    seeds=st.lists(
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    systems=st.lists(
        st.sampled_from(list(SystemKind)),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)
@settings(max_examples=6, deadline=None)
def test_batch_and_scalar_modes_are_byte_identical(seeds, systems):
    cells = [
        make_cell(
            ScenarioPaths("driving"),
            system,
            seed=seed,
            duration=DURATION,
            fidelity=Fidelity.FLOW,
        )
        for system in systems
        for seed in seeds
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        scalar = run_cells(cells, cache=tmp_path / "scalar", jobs=1)
        batch = run_cells(cells, cache=tmp_path / "batch", mode="batch")
        scalar_payloads = [s.data for s in results_of(scalar)]
        batch_payloads = [s.data for s in results_of(batch)]
        assert canonical_json(batch_payloads) == canonical_json(
            scalar_payloads
        )
        assert json.loads(canonical_json(batch_payloads)) == batch_payloads
