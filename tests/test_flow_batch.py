"""Tests for the array-batched flow backend (repro.flow.batch).

The batch engine takes one cell shape, default-config Converge, and
its contract is *byte-exactness*: for every cell it accepts, the
payload it produces must equal the scalar runner's payload — same
canonical_json bytes, plain ``==``, same type tree and key order, with
no normalization pass on either side.
These tests pin that contract on real scenario paths, exercise the
scope and the planner's grouping semantics, and check the runner's
``mode="batch"`` integration including the cache, the routing of every
other system to the scalar loop, and the scalar fallback.
"""

import dataclasses
import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import build_call_config
from repro.core.config import SystemKind
from repro.experiments import runner as runner_mod
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    BuilderPaths,
    ConstantPaths,
    Fidelity,
    ScenarioPaths,
    canonical_json,
    make_cell,
)
from repro.experiments.common import scenario_paths
from repro.experiments.runner import execute_cell, results_of, run_cells
from repro.flow import batch as batch_mod
from repro.flow.batch import (
    _binomial_walk,
    _DrawPool,
    _scalar_map,
    _step_draws,
    batchable,
    execute_batch,
    group_key,
    plan_batches,
)
from repro.flow.frames import MAX_RTX_ROUNDS, binomial_draw, binomial_from_uniform
from repro.flow.link import FlowLink
from repro.metrics import qoe
from repro.net.loss import GilbertElliottLoss
from repro.net.trace import BandwidthTrace

from tests.batch_spy import watch_payload_builds
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

    @pytest.mark.parametrize(
        "cell",
        [
            *(
                pytest.param(_flow_cell(system), id=system.value)
                for system in SystemKind
                if system is not SystemKind.CONVERGE
            ),
            pytest.param(
                _flow_cell(qoe_feedback_enabled=False), id="override"
            ),
            pytest.param(
                make_cell(
                    BuilderPaths("repro.experiments.fig11_feedback:fig11_paths"),
                    SystemKind.CONVERGE,
                    duration=DURATION,
                    fidelity=Fidelity.FLOW,
                ),
                id="builder-paths",
            ),
        ],
    )
    def test_every_other_shape_is_not(self, cell):
        assert not batchable(cell)


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
        # Another system never joins a Converge group: the array
        # program does not take it, so it goes to the scalar rest.
        cells = [
            _flow_cell(SystemKind.CONVERGE, seed=1),
            _flow_cell(SystemKind.SRTT, seed=1),
            _flow_cell(SystemKind.CONVERGE, seed=2),
        ]
        groups, rest = plan_batches(cells)
        assert groups == [[0, 2]]
        assert rest == [1]

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


def _assert_batch_is_scalar(cells):
    batched = execute_batch(cells)
    assert len(batched) == len(cells)
    for cell, payload in zip(cells, batched):
        assert_same_payload(payload, execute_cell(cell))


def _assert_batch_mode_is_scalar(cells):
    """The ``mode="batch"`` pin against the scalar loop: a Converge
    group steps on the array program, every other system is routed to
    the loop, and the bytes are the loop's either way."""
    report = run_cells(cells, jobs=1, mode="batch")
    assert report.stats.batched == sum(map(batchable, cells))
    for cell, summary in zip(cells, results_of(report)):
        assert_same_payload(summary.data, execute_cell(cell))


# Path 0 is dark for the whole call and path 1 is lossy: outage loss,
# the watchdog's degrade and disable, the idle-path rate decay, late
# drops and salvage.
_OUTAGE_PATHS = ConstantPaths((0.0, 6e6), (0.02, 0.03), (0.0, 0.01))


class TestExecuteBatchByteExact:
    """The array program is pinned to the scalar loop by behaviour: on
    fading traces, through an outage and on constant paths.  These
    batches are the only guard of the pair; for the five systems the
    array program does not take, the same suites pin that the batch
    pin serves them the loop's bytes."""

    @pytest.mark.parametrize("system", list(SystemKind))
    def test_matches_scalar_payloads(self, system):
        _assert_batch_mode_is_scalar(
            [
                _flow_cell(system, seed=seed, scenario=scenario)
                for scenario in ("driving", "walking")
                for seed in (1, 2, 3)
            ]
        )

    @pytest.mark.parametrize("system", list(SystemKind))
    def test_outage_matches_scalar(self, system):
        _assert_batch_mode_is_scalar(
            [
                make_cell(
                    _OUTAGE_PATHS,
                    system,
                    seed=seed,
                    duration=2 * DURATION,
                    fidelity=Fidelity.FLOW,
                )
                for seed in (1, 2)
            ]
        )

    def test_constant_paths_match_scalar(self):
        for paths in (
            ConstantPaths((8e6, 8e6), (0.02, 0.03), (0.01, 0.0)),
            # A path slower than the GCC floor: overuse cuts go below
            # the floor and the clamp lifts them back.
            ConstantPaths((50e3, 6e6), (0.02, 0.03), (0.0, 0.01)),
        ):
            _assert_batch_is_scalar(
                [
                    make_cell(
                        paths,
                        SystemKind.CONVERGE,
                        seed=seed,
                        duration=DURATION,
                        fidelity=Fidelity.FLOW,
                    )
                    for seed in (5, 6)
                ]
            )

    def test_one_summary_definition_serves_both_engines(self, monkeypatch):
        # A freeze shows a stale frame at REPEATED_FRAME_PSNR: moving
        # that constant moves the scalar summary, and the array
        # program's payloads follow because they come out of the same
        # ``summarize``, not a copy of it.
        cells = [
            make_cell(
                ScenarioPaths("driving"),
                SystemKind.CONVERGE,
                seed=seed,
                duration=20.0,
                fidelity=Fidelity.FLOW,
            )
            for seed in (1, 2, 3)
        ]
        before = [execute_cell(cell)["summary"]["average_psnr"] for cell in cells]
        monkeypatch.setattr(qoe, "REPEATED_FRAME_PSNR", qoe.REPEATED_FRAME_PSNR - 6)
        scalar = [execute_cell(cell) for cell in cells]
        for payload, psnr in zip(scalar, before):
            assert payload["summary"]["average_psnr"] != psnr
        for payload, expected in zip(execute_batch(cells), scalar):
            assert_same_payload(payload, expected)

    def test_results_in_input_order(self):
        # Labels survive the round trip in the order the cells went in.
        cells = [
            _flow_cell(seed=seed, label=f"cell-{seed}") for seed in (3, 1, 2)
        ]
        batched = execute_batch(cells)
        assert [p["label"] for p in batched] == ["cell-3", "cell-1", "cell-2"]


class TestIterBatch:
    def test_each_payload_is_built_when_it_is_taken(self, monkeypatch):
        built = []
        watch_payload_builds(monkeypatch, lambda lane, cell: built.append(lane))
        cells = [_flow_cell(seed=seed) for seed in (1, 2, 3, 4)]
        payloads = batch_mod.iter_batch(cells)
        assert built == []
        first = next(payloads)
        assert built == [0]
        second = next(payloads)
        assert built == [0, 1]
        rest = list(payloads)
        assert built == [0, 1, 2, 3]
        assert [first, second] + rest == execute_batch(cells)

    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param(
                [
                    _flow_cell(seed=1),
                    make_cell(
                        ScenarioPaths("driving"),
                        SystemKind.CONVERGE,
                        seed=2,
                        duration=DURATION + 1.0,
                        fidelity=Fidelity.FLOW,
                    ),
                ],
                id="two-group-keys",
            ),
            pytest.param(
                [_flow_cell(seed=1), _flow_cell(SystemKind.WEBRTC, seed=2)],
                id="unbatchable-cell",
            ),
        ],
    )
    def test_refuses_anything_but_one_planned_group(self, cells):
        # Regression: the array program ran every cell with the first
        # one's config, so a 4 s cell came back as a 3 s call and a
        # WebRTC cell as a Converge call.
        with pytest.raises(ValueError):
            execute_batch(cells)

    def test_loop_state_is_released_before_the_first_payload(
        self, monkeypatch
    ):
        # Only the step loop reads the draw window and the capacity
        # tables; payloads read the records in place.
        held = []
        real = batch_mod._BatchFlowRun._cell_payload

        def watched(run, *args):
            held.append(
                hasattr(run, "pool")
                or any(hasattr(lanes, "caps") for lanes in run.lanes)
            )
            return real(run, *args)

        monkeypatch.setattr(batch_mod._BatchFlowRun, "_cell_payload", watched)
        payloads = batch_mod.iter_batch(
            [_flow_cell(seed=seed) for seed in (1, 2)]
        )
        assert len(list(payloads)) == 2
        assert held == [False, False]


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

    def test_six_systems_match_scalar_and_only_converge_batches(self):
        cells = [
            _flow_cell(system, seed=seed)
            for system in SystemKind
            for seed in (1, 2)
        ]
        batch = run_cells(cells, jobs=1, mode="batch")
        scalar = run_cells(cells, jobs=1, mode="scalar")
        assert batch.stats.batched == 2
        assert batch.stats.executed == len(cells)
        assert canonical_json([s.data for s in results_of(batch)]) == (
            canonical_json([s.data for s in results_of(scalar)])
        )

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
        # change under a canonical_json round trip — whichever engine
        # the batch pin routes the system to.
        report = run_cells([_flow_cell(system, seed=7)], mode="batch")
        assert_normal_form(results_of(report)[0].data)

    def test_failed_batch_is_counted_and_rerun_scalar(
        self, tmp_path, monkeypatch, capsys
    ):
        cells = [_flow_cell(seed=seed) for seed in (1, 2, 3)]
        clean = run_cells(cells, cache=tmp_path / "clean", mode="batch")
        assert clean.stats.batch_fallbacks == 0

        def broken(_cells):
            raise RuntimeError("array program crashed")

        monkeypatch.setattr(batch_mod, "iter_batch", broken)
        report = run_cells(
            cells, cache=tmp_path / "broken", mode="batch", progress=True
        )
        assert report.stats.batch_fallbacks == 3
        assert report.stats.executed == 3 and report.stats.errors == 0
        assert "3 fell back from a failed batch" in capsys.readouterr().err
        assert [canonical_json(s.data) for s in results_of(report)] == [
            canonical_json(s.data) for s in results_of(clean)
        ]

    def test_batch_failing_mid_chunk_reruns_only_the_undelivered(
        self, tmp_path, monkeypatch
    ):
        cells = [_flow_cell(seed=seed) for seed in range(1, 9)]
        scalar = run_cells(cells, jobs=1)

        def fail_on_lane_3(lane, cell):
            if lane == 3:
                raise RuntimeError("lane 3 cannot be built")

        watch_payload_builds(monkeypatch, fail_on_lane_3)
        via_scalar = []
        real_execute = runner_mod.execute_cell

        def execute(cell):
            via_scalar.append(cell.seed)
            return real_execute(cell)

        monkeypatch.setattr(runner_mod, "execute_cell", execute)
        delivered = []
        outcomes = {}

        def sink(outcome, positions):
            delivered.extend(positions)
            outcomes[positions[0]] = outcome

        stats = runner_mod.stream_cells(
            cells, sink, jobs=1, cache=tmp_path, mode="batch"
        )
        # Three lanes came out of the batch before it raised; the other
        # five, and only they, were re-run scalar.  No cell twice, none
        # lost, each stored once.
        assert via_scalar == [4, 5, 6, 7, 8]
        assert stats.batch_fallbacks == 5
        assert stats.executed == 8 and stats.errors == 0
        assert sorted(delivered) == list(range(8))
        assert len(ResultCache(tmp_path)) == 8
        for index, summary in enumerate(results_of(scalar)):
            assert_same_payload(outcomes[index].summary.data, summary.data)

    def test_batched_wall_seconds_add_up_to_the_batch(self):
        cells = [_flow_cell(seed=seed) for seed in (1, 2, 3, 4)]
        report = run_cells(cells, mode="batch")
        walls = [outcome.wall_seconds for outcome in report.outcomes]
        # An equal share of the array program, plus the lane's own
        # payload build: never zero, and together no more than the run.
        assert min(walls) > 0.0
        assert min(walls[1:]) > walls[0]
        assert sum(walls) <= report.stats.wall_seconds
        assert report.stats.executed_wall_seconds == pytest.approx(sum(walls))


class TestDenseLossGroups:
    """Stationary cells draw losses in every lane every frame, so the
    binomial screen runs at full width and decides ~97 % of the lanes;
    walking (like driving) only draws in the lanes a burst hit, most
    of which stay open."""

    @pytest.mark.parametrize("scenario", ["stationary", "walking"])
    def test_matches_scalar_at_every_width(self, scenario):
        cells = [
            _flow_cell(seed=seed, scenario=scenario) for seed in range(1, 65)
        ]
        scalar = [execute_cell(cell) for cell in cells]
        for width in (1, 7, 64):
            batched = execute_batch(cells[:width])
            assert len(batched) == width
            for payload, expected in zip(batched, scalar):
                assert_same_payload(payload, expected)

    @pytest.mark.parametrize("rates", [(1.0, 0.02), (0.02, 1.0)])
    def test_certain_loss_without_an_outage(self, rates):
        # A loss rate of exactly 1 takes every packet with no draw,
        # and no lane is ever in outage on a constant path.
        _assert_batch_is_scalar(
            [
                make_cell(
                    ConstantPaths((6e6, 4e6), (0.02, 0.04), rates),
                    SystemKind.CONVERGE,
                    seed=seed,
                    duration=DURATION,
                    fidelity=Fidelity.FLOW,
                )
                for seed in range(1, 5)
            ]
        )


# ---------------------------------------------------------------------------
# The exact helpers under the array program


def _walk(lanes):
    """``_binomial_walk`` over ``(n, p, u)`` lanes, as a list."""
    n, p, u = zip(*lanes)
    return _binomial_walk(
        np.array(n, dtype=np.int64), np.array(p), np.array(u)
    ).tolist()


_EDGE_P = [1e-9, 1e-6, 1e-3, 0.02, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9]


@st.composite
def _lanes(draw):
    """``(n, p, u)`` with ``u`` on and around every decision boundary."""
    n = draw(st.integers(1, 2000))
    p = draw(
        st.sampled_from(_EDGE_P)
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    )
    stop = (1.0 - p) ** n  # the walk returns 0 iff stop >= u
    screen = 1.0 - n * p  # Bernoulli: stop >= screen
    u = draw(
        st.floats(0.0, 1.0, exclude_max=True)
        | st.sampled_from(
            [
                stop,
                math.nextafter(stop, 0.0),
                math.nextafter(stop, 1.0),
                screen,
                screen - 1e-9,
                screen + 1e-9,
                math.nextafter(screen - 1e-9, 0.0),
                math.nextafter(screen - 1e-9, 1.0),
            ]
        )
    )
    return n, p, min(max(u, 0.0), math.nextafter(1.0, 0.0))


class TestBinomialWalk:
    def test_quantile_one_ulp_above_a_threshold(self):
        # Regression: the tabulated walk biased thresholds and
        # quantiles by 2*group to share one searchsorted, which rounds
        # both to the float spacing near 2*group — a quantile one ulp
        # above its lane's q**n then compared equal and gave k = 0.
        pairs = [(5 + i, 0.01 + 0.003 * i) for i in range(24)]
        lanes = [
            (n, p, math.nextafter((1.0 - p) ** n, 1.0)) for n, p in pairs
        ]
        expected = [binomial_from_uniform(u, n, p) for n, p, u in lanes]
        assert expected == [1] * 24
        assert _walk(lanes) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_lanes(), min_size=1, max_size=40))
    def test_equals_scalar_walk_lane_by_lane(self, lanes):
        assert _walk(lanes) == [
            binomial_from_uniform(u, n, p) for n, p, u in lanes
        ]

    def test_binomial_draw_is_the_walk_behind_its_guards(self):
        rng = random.Random(3)
        for n, p in [(0, 0.5), (-1, 0.5), (4, 0.0), (4, -0.1)]:
            assert binomial_draw(rng, n, p) == 0
        assert binomial_draw(rng, 4, 1.0) == 4
        assert rng.random() == random.Random(3).random()  # nothing drawn
        a, b = random.Random(9), random.Random(9)
        assert [binomial_draw(a, 30, 0.1) for _ in range(50)] == [
            binomial_from_uniform(b.random(), 30, 0.1) for _ in range(50)
        ]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestScalarMap:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 1.0, 1.0, 1.0],  # the first lane is the odd one
            [0.1, 0.2, 0.3, 0.4],  # all lanes differ
            [0.7],  # one lane
            [1.5, 1.5, 1.5],  # lockstep
            [0.0, -0.0, 0.0, -0.0],  # equal under ==, not in bits
            [-0.0, 0.0],
            [math.nan, 1.0, math.nan, -math.nan],
        ],
    )
    def test_equals_the_per_element_map(self, values):
        def fn(v):
            return math.copysign(1.0, v) * (abs(v) ** 0.5 + 1.0)

        got = _scalar_map(fn, np.array(values))
        assert _bits(got) == _bits([fn(v) for v in values])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-0.35 / 30, -0.7 / 30, -0.0, 0.0, -1.25])
            | st.floats(-5.0, 0.0),
            min_size=1,
            max_size=30,
        )
    )
    def test_exp_lanes(self, values):
        got = _scalar_map(math.exp, np.array(values))
        assert _bits(got) == _bits([math.exp(v) for v in values])


def _hostile_paths(duration, seed):
    """Driving paths at their worst: path 0 blacks out from 1 s to
    2.5 s, and both lose in Gilbert-Elliott bursts often and hard
    enough to send retransmission rounds after the FEC."""
    paths = scenario_paths("driving", duration, seed)
    trace = paths[0].trace
    dark = BandwidthTrace(
        [(t, 0.0 if 1.0 <= t < 2.5 else v) for t, v in trace.samples()]
        + [(1.0, 0.0), (2.5, trace.capacity_at(2.5))]
    )
    bursts = GilbertElliottLoss(
        p_good_to_bad=0.05, p_bad_to_good=0.1, good_loss=0.01, bad_loss=0.6
    )
    return [
        dataclasses.replace(
            path,
            trace=dark if path.path_id == 0 else path.trace,
            loss_model=bursts,
        )
        for path in paths
    ]


class TestDrawPool:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    def test_rows_are_random_random_streams(self):
        # Through three windows of every row, each "step" reserving
        # its bound and drawing unevenly, so the rows run short at
        # different steps and carry different tails forward.
        pool = _DrawPool(self.SEEDS)
        streams = [random.Random(seed) for seed in self.SEEDS]
        subsets = [
            np.array(rows, dtype=np.int64)
            for rows in ([0, 2, 4], [1], [3, 4], [0, 1, 2, 3])
        ]
        bound = 7
        drawn = np.zeros(len(self.SEEDS), dtype=np.int64)
        step = 0
        while drawn.min() < 3 * batch_mod._POOL_CHUNK + 10:
            pool.reserve(bound)
            values = pool.draw_all()
            assert values.tolist() == [stream.random() for stream in streams]
            drawn += 1
            for turn in range(step % bound):
                rows = subsets[(step + turn) % len(subsets)]
                values = pool.draw(rows)
                assert values.tolist() == [
                    streams[i].random() for i in rows.tolist()
                ]
                drawn[rows] += 1
            step += 1

    def test_no_lane_draws_past_the_step_bound(self, monkeypatch):
        # The hostile group reaches into the retransmission rounds, and
        # still no lane's cursor moves more than the bound between two
        # reserves (nor after the last); its payloads are the loop's.
        duration = 4.0
        cells = [
            make_cell(
                BuilderPaths(
                    "tests.test_flow_batch:_hostile_paths", (("seed", seed),)
                ),
                SystemKind.CONVERGE,
                seed=seed,
                duration=duration,
                fidelity=Fidelity.FLOW,
            )
            for seed in range(1, 17)
        ]
        links = [
            [
                FlowLink(path)
                for path in sorted(
                    _hostile_paths(duration, cell.seed),
                    key=lambda path: path.path_id,
                )
            ]
            for cell in cells
        ]
        moves = []
        seen = {}
        real = _DrawPool.reserve

        def reserve(pool, n):
            if "after" in seen:
                moves.append(int((pool._cursor - seen["after"]).max()))
            real(pool, n)
            seen.update(pool=pool, after=pool._cursor.copy())

        monkeypatch.setattr(_DrawPool, "reserve", reserve)
        config = build_call_config(SystemKind.CONVERGE, duration=duration)
        run = batch_mod._BatchFlowRun(config, cells, links)
        with np.errstate(divide="ignore", invalid="ignore"):
            payloads = list(run.run())
        moves.append(int((seen["pool"]._cursor - seen["after"]).max()))
        paths = len(links[0])
        assert len(moves) == run.steps
        assert max(moves) <= _step_draws(paths)
        assert max(moves) > _step_draws(paths) - paths * MAX_RTX_ROUNDS
        for cell, payload in zip(cells, payloads):
            assert_same_payload(payload, execute_cell(cell))

    def test_a_window_shorter_than_a_step_falls_back_to_the_scalar_loop(
        self, monkeypatch
    ):
        cells = [_flow_cell(seed=seed) for seed in (1, 2, 3, 4)]
        scalar = run_cells(cells, jobs=1, mode="scalar")
        monkeypatch.setattr(batch_mod, "_POOL_CHUNK", _step_draws(2) - 1)
        with pytest.raises(ValueError, match="window"):
            execute_batch(cells)
        report = run_cells(cells, jobs=1, mode="batch")
        assert report.stats.batch_fallbacks == len(cells)
        assert report.stats.batched == 0 and report.stats.errors == 0
        assert [canonical_json(s.data) for s in results_of(report)] == [
            canonical_json(s.data) for s in results_of(scalar)
        ]

    def test_batch_does_not_import_numpy_random(self):
        # The lane streams are random.Random's own; numpy.random
        # (+7 MiB) must stay out of a process that only batches.
        src = Path(__file__).resolve().parents[1] / "src"
        code = textwrap.dedent(
            f"""
            import sys, numpy
            eager = "numpy.random" in sys.modules
            sys.path.insert(0, {str(src)!r})
            from repro.core.config import SystemKind
            from repro.experiments.cells import (
                Fidelity, ScenarioPaths, make_cell,
            )
            from repro.flow.batch import execute_batch
            cells = [
                make_cell(
                    ScenarioPaths("driving"), SystemKind.CONVERGE,
                    seed=seed, duration=2.0, fidelity=Fidelity.FLOW,
                )
                for seed in range(4)
            ]
            assert len(execute_batch(cells)) == 4
            print(eager, "numpy.random" in sys.modules)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        eager, loaded = done.stdout.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random eagerly")
        assert loaded == "False"
