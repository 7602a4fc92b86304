"""Tests for the array-batched flow backend (repro.flow.batch).

The batch engine's contract is *byte-exactness*: for every cell it
accepts, the payload it produces must equal the scalar runner's
payload — same canonical_json bytes, plain ``==``, same type tree and
key order, with no normalization pass on either side.
These tests pin that contract on real scenario paths, exercise the
planner's grouping semantics, and check the runner's ``mode="batch"``
integration including the cache and the scalar fallback.
"""

import pytest

from repro.core.config import SystemKind
from repro.experiments import runner as runner_mod
from repro.experiments.cells import (
    ConstantPaths,
    Fidelity,
    ScenarioPaths,
    canonical_json,
    make_cell,
)
from repro.experiments.runner import results_of, run_cells
from repro.flow.batch import (
    _scalar_payload,
    batchable,
    execute_batch,
    execute_cells,
    group_key,
    plan_batches,
)

from tests.normal_form import assert_normal_form, assert_same_payload

DURATION = 3.0


def _flow_cell(system=SystemKind.CONVERGE, seed=1, scenario="driving", **kw):
    return make_cell(
        ScenarioPaths(scenario),
        system,
        seed=seed,
        duration=DURATION,
        fidelity=Fidelity.FLOW,
        **kw,
    )


class TestBatchable:
    def test_flow_single_stream_is_batchable(self):
        assert batchable(_flow_cell())

    def test_packet_fidelity_is_not(self):
        cell = make_cell(
            ScenarioPaths("driving"),
            SystemKind.CONVERGE,
            seed=1,
            duration=DURATION,
            fidelity=Fidelity.PACKET,
        )
        assert not batchable(cell)

    def test_chaos_cells_are_not(self):
        assert not batchable(_flow_cell(chaos="uplink-death"))

    def test_multi_stream_is_not(self):
        assert not batchable(_flow_cell(num_streams=2))


class TestPlanBatches:
    def test_groups_by_structure_seed_and_label_masked(self):
        # Same system, different seeds/labels -> one group.
        a = _flow_cell(seed=1)
        b = _flow_cell(seed=2, label="second")
        c = _flow_cell(seed=3)
        assert group_key(a) == group_key(b) == group_key(c)
        groups, rest = plan_batches([a, b, c])
        assert groups == [[0, 1, 2]]
        assert rest == []

    def test_groups_split_on_system(self):
        cells = [
            _flow_cell(SystemKind.CONVERGE, seed=1),
            _flow_cell(SystemKind.SRTT, seed=1),
            _flow_cell(SystemKind.CONVERGE, seed=2),
        ]
        groups, rest = plan_batches(cells)
        # First-seen order, input order inside each group.
        assert groups == [[0, 2], [1]]
        assert rest == []

    def test_non_batchable_cells_go_to_rest(self):
        cells = [
            _flow_cell(seed=1),
            _flow_cell(seed=2, chaos="uplink-death"),
            make_cell(
                ScenarioPaths("driving"),
                SystemKind.CONVERGE,
                seed=3,
                duration=DURATION,
                fidelity=Fidelity.PACKET,
            ),
            _flow_cell(seed=4),
        ]
        groups, rest = plan_batches(cells)
        assert groups == [[0, 3]]
        assert rest == [1, 2]


class TestExecuteBatchByteExact:
    @pytest.mark.parametrize(
        "system",
        [SystemKind.CONVERGE, SystemKind.SRTT, SystemKind.WEBRTC],
    )
    def test_matches_scalar_payloads(self, system):
        cells = [_flow_cell(system, seed=seed) for seed in (1, 2, 3)]
        batched = execute_batch(cells)
        assert len(batched) == len(cells)
        for cell, payload in zip(cells, batched):
            assert_same_payload(payload, _scalar_payload(cell))

    def test_constant_paths_match_scalar(self):
        cells = [
            make_cell(
                ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
                SystemKind.CONVERGE,
                seed=seed,
                duration=DURATION,
                fidelity=Fidelity.FLOW,
            )
            for seed in (5, 6)
        ]
        batched = execute_batch(cells)
        for cell, payload in zip(cells, batched):
            assert_same_payload(payload, _scalar_payload(cell))

    def test_results_in_input_order(self):
        # Labels survive the round trip in the order the cells went in.
        cells = [
            _flow_cell(seed=seed, label=f"cell-{seed}") for seed in (3, 1, 2)
        ]
        batched = execute_batch(cells)
        assert [p["label"] for p in batched] == ["cell-3", "cell-1", "cell-2"]


class TestExecuteCells:
    def test_mixed_population_matches_scalar(self):
        cells = [
            _flow_cell(SystemKind.CONVERGE, seed=1),
            _flow_cell(SystemKind.SRTT, seed=1),
            _flow_cell(SystemKind.CONVERGE, seed=2, chaos="uplink-death"),
        ]
        payloads = execute_cells(cells)
        assert len(payloads) == len(cells)
        for cell, payload in zip(cells, payloads):
            assert_same_payload(payload, _scalar_payload(cell))


class TestRunnerBatchMode:
    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            run_cells([_flow_cell()], mode="vectorized")

    def test_batch_mode_matches_scalar_mode(self, tmp_path):
        cells = [_flow_cell(seed=seed) for seed in (1, 2)] + [
            # A chaos cell rides along and exercises the scalar fallback
            # inside batch mode.
            _flow_cell(seed=3, chaos="uplink-death")
        ]
        scalar = run_cells(cells, cache=tmp_path / "scalar", jobs=1)
        batch = run_cells(cells, cache=tmp_path / "batch", mode="batch")
        scalar_payloads = [s.data for s in results_of(scalar)]
        batch_payloads = [s.data for s in results_of(batch)]
        assert len(batch_payloads) == len(scalar_payloads)
        for batch_payload, scalar_payload in zip(
            batch_payloads, scalar_payloads
        ):
            assert_same_payload(batch_payload, scalar_payload)

    def test_batch_entries_hit_cache_in_scalar_mode(self, tmp_path):
        cells = [_flow_cell(seed=seed) for seed in (1, 2, 3)]
        first = run_cells(cells, cache=tmp_path, mode="batch")
        assert first.stats.executed == 3
        second = run_cells(cells, cache=tmp_path, jobs=1)
        assert second.stats.cache_hits == 3
        assert second.stats.executed == 0
        assert [canonical_json(s.data) for s in results_of(second)] == [
            canonical_json(s.data) for s in results_of(first)
        ]

    def test_chunking_preserves_results(self, tmp_path, monkeypatch):
        # Force tiny chunks so one group spans several execute_batch
        # calls; the outcome must not change.
        monkeypatch.setattr(runner_mod, "_MAX_BATCH_CELLS", 2)
        cells = [_flow_cell(seed=seed) for seed in (1, 2, 3, 4, 5)]
        chunked = run_cells(cells, cache=tmp_path / "a", mode="batch")
        monkeypatch.setattr(runner_mod, "_MAX_BATCH_CELLS", 1024)
        whole = run_cells(cells, cache=tmp_path / "b", mode="batch")
        assert [canonical_json(s.data) for s in results_of(chunked)] == [
            canonical_json(s.data) for s in results_of(whole)
        ]

    @pytest.mark.parametrize("system", list(SystemKind))
    def test_batch_payload_is_json_normalized(self, system):
        # The contract the runner relies on (nothing re-normalizes):
        # payloads come back in the normal form analysis/export.py
        # defines — sorted str keys, native lists/floats only, no
        # change under a canonical_json round trip.
        assert_normal_form(execute_batch([_flow_cell(system, seed=7)])[0])
