"""The result path: encode at most once, decode at most once.

``analysis.export.result_to_dict`` owns the payload *normal form*
(what ``json.loads(canonical_json(x))`` returns), so nothing between
the simulator and its consumer re-normalizes; ``ResultCache`` validates
an entry on the bytes ``put`` stored, so a hit decodes the summary once
and never re-encodes it.  These tests pin both halves.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import result_to_dict
from repro.core.api import build_call_config, run_call
from repro.core.config import SystemKind
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    ConstantPaths,
    Fidelity,
    ScenarioPaths,
    make_cell,
)
from repro.experiments.runner import execute_cell
from repro.flow.batch import execute_batch
from repro.flow.session import run_flow_call

from tests.normal_form import (
    assert_normal_form,
    assert_same_payload,
    types_of,
)

DURATION = 3.0
SEED = 1

GOLDEN_SCENARIOS = (
    "converge", "m-rtp", "m-tput", "srtt", "webrtc", "converge_path-churn",
)
CHAOS_PLANS = ("rtcp-blackout", "loss-storm", "path-churn")


def _cell(name, fidelity):
    """The six golden scenarios, a two-stream cell, one per chaos plan."""
    scenario, system, extra = "driving", SystemKind.CONVERGE, {}
    if name == "converge_path-churn":
        scenario, extra = "migration", {"chaos": "path-churn"}
    elif name in CHAOS_PLANS:
        scenario, extra = "migration", {"chaos": name}
    elif name == "two-stream":
        extra = {"num_streams": 2}
    else:
        system = SystemKind(name)
    return make_cell(
        ScenarioPaths(scenario), system, seed=SEED, duration=DURATION,
        fidelity=fidelity, **extra,
    )


class TestNormalFormContract:
    @pytest.mark.parametrize("fidelity", list(Fidelity), ids=lambda f: f.value)
    @pytest.mark.parametrize(
        "name", GOLDEN_SCENARIOS + ("two-stream",) + CHAOS_PLANS
    )
    def test_execute_cell_returns_the_normal_form(self, name, fidelity):
        payload = execute_cell(_cell(name, fidelity))
        assert_normal_form(payload)
        if name in ("path-churn", "converge_path-churn"):
            assert next(iter(payload)) == "churn"

    def test_dynamic_path_keys_sort_as_strings(self):
        # Twelve paths: "10" and "11" sort before "2", which neither
        # insertion order nor numeric order gives.
        count = 12
        cell = make_cell(
            ConstantPaths(
                (2e6,) * count, (0.02,) * count, (0.0,) * count
            ),
            SystemKind.CONVERGE, seed=SEED, duration=2.0, fidelity="flow",
        )
        payload = execute_cell(cell)
        assert len(payload["paths"]) > 10
        assert_normal_form(payload)
        assert_same_payload(execute_batch([cell])[0], payload)


def _results():
    paths = ScenarioPaths("migration")
    config = build_call_config(SystemKind.CONVERGE, duration=DURATION, seed=SEED)
    yield run_call(config, paths.build(DURATION, SEED))
    yield run_flow_call(config, paths.build(DURATION, SEED))


def _scribble(value):
    """Empty every container of a payload, innermost first."""
    if isinstance(value, (dict, list)):
        for item in list(value.values() if isinstance(value, dict) else value):
            _scribble(item)
        value.clear()


class TestPayloadOwnsItsData:
    def test_mutating_a_payload_reaches_nothing_else(self):
        for result in _results():
            metrics = result.metrics
            metrics.record_keyframe_request(0.5, 1)
            metrics.record_feedback(0.6, 0, 2, 0.01)
            before = copy.deepcopy(
                (metrics.keyframe_requests, metrics.feedback_events)
            )
            reference = copy.deepcopy(result_to_dict(result))
            payload = result_to_dict(result)

            assert payload["events"]["keyframe_requests"]
            assert payload["events"]["feedback"]
            _scribble(payload)
            assert result_to_dict(result) == reference
            assert (
                metrics.keyframe_requests, metrics.feedback_events
            ) == before
            assert types_of(before) == types_of(
                (metrics.keyframe_requests, metrics.feedback_events)
            )


# ---------------------------------------------------------------------------
# Cache: byte-level validation


KEY = "ab" + "7" * 62

# An entry exactly as the parent commit's ``put`` wrote it (before
# validation went byte-level): old caches must stay warm.
PARENT_ENTRY = (
    '{"cell":{"label":"converge","seed":7,"system":"converge"},'
    '"checksum":"7461836fb69087ece4382474f3f8b07338ce98f6192df12ebad19d52'
    '887cf695","code_version":"2026.08-2","created":1790664389.3308423,'
    '"key":"ab77777777777777777777777777777777777777777777777777777777777777"'
    ',"summary":{"label":"caf\\u00e9","series":{"fps":{"times":[1.0,2.0],'
    '"values":[30.0,29.0]}},"summary":{"frames_rendered":119,'
    '"throughput_bps":2512345.5}},"wall_seconds":0.0125}'
)
PARENT_SUMMARY = {
    "label": "café",
    "series": {"fps": {"times": [1.0, 2.0], "values": [30.0, 29.0]}},
    "summary": {"frames_rendered": 119, "throughput_bps": 2512345.5},
}

# Summaries built from the very markers validation searches for.
TRICKY_SUMMARY = {
    "key": KEY,
    "summary": {"key": KEY, "summary": {"wall_seconds": 1.0}, "x": [1.5]},
    "wall_seconds": {"wall_seconds": 2.0, "key": "k"},
    "text": '"key":"%s","summary":{ and ,"wall_seconds":3.0}' % KEY,
}
TRICKY_CELL = {"label": 'odd","summary":{', "system": "converge"}


def _store_one(root, summary=None, cell=None):
    store = ResultCache(root)
    target = store.put(
        KEY, cell or {"system": "converge"}, summary or {"x": [1.5, 2.5]}, 0.25
    )
    return store, target


def _flip(target, offset):
    raw = bytearray(target.read_bytes())
    raw[offset] ^= 0x01
    target.write_bytes(bytes(raw))


def _offsets(target):
    """One byte inside the body, the checksum and the key of an entry."""
    raw = target.read_bytes()
    return {
        "body": raw.index(b'"summary":') + len(b'"summary":') + 3,
        "checksum": raw.index(b'"checksum":"') + len(b'"checksum":"') + 5,
        "key": raw.index(b'"key":"') + len(b'"key":"') + 5,
    }


class TestByteLevelValidation:
    def test_parent_entry_text_is_still_a_hit(self, tmp_path):
        store = ResultCache(tmp_path)
        target = store.path_for(KEY)
        target.write_text(PARENT_ENTRY)
        entry = store.get(KEY)
        assert entry is not None
        assert entry.summary == PARENT_SUMMARY
        assert entry.cell["seed"] == 7
        assert entry.code_version == "2026.08-2"
        assert entry.created == 1790664389.3308423
        assert entry.wall_seconds == 0.0125
        assert target.read_text() == PARENT_ENTRY

    @pytest.mark.parametrize("where", ["body", "checksum", "key"])
    def test_one_flipped_byte_is_a_miss_and_deleted(self, tmp_path, where):
        store, target = _store_one(tmp_path)
        assert store.get(KEY) is not None
        _flip(target, _offsets(target)[where])
        assert store.get(KEY) is None
        assert not target.exists()

    @pytest.mark.parametrize("where", ["body", "checksum", "key"])
    def test_flipped_byte_in_a_source_is_skipped_and_kept(
        self, tmp_path, where
    ):
        source, target = _store_one(tmp_path / "src")
        good = "cd" + "1" * 62
        source.put(good, {"system": "srtt"}, {"y": 1}, 0.1)
        _flip(target, _offsets(target)[where])
        damaged = target.read_bytes()
        shards = [tmp_path / "s0", tmp_path / "s1"]
        assert sum(source.shard(shards)) == 1
        merged = ResultCache(tmp_path / "merged")
        assert merged.merge([source]) == {"merged": 1, "skipped": 0}
        assert merged.get(good) is not None
        assert not merged.path_for(KEY).exists()
        assert target.read_bytes() == damaged

    def test_a_byte_that_is_not_utf8_is_a_miss(self, tmp_path):
        store, target = _store_one(tmp_path)
        raw = bytearray(target.read_bytes())
        raw[_offsets(target)["body"]] = 0xFF
        target.write_bytes(bytes(raw))
        assert store.get(KEY) is None
        assert not target.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: json.dumps(json.loads(text), indent=2),
            lambda text: json.dumps(json.loads(text), sort_keys=True),
            lambda text: text.replace('"summary":{', '"summary": {', 1),
            lambda text: text.replace(',"wall_seconds"', ', "wall_seconds"'),
            lambda text: text.replace("[1.5,", "[1.5, "),
        ],
        ids=["indent", "default-separators", "space-after-summary",
             "space-before-wall", "space-in-body"],
    )
    def test_an_entry_not_in_puts_layout_is_a_miss(self, tmp_path, edit):
        # Same JSON value, different text: not what put() writes.
        store, target = _store_one(tmp_path)
        text = target.read_text()
        edited = edit(text)
        assert edited != text and json.loads(edited) == json.loads(text)
        target.write_text(edited)
        assert store.get(KEY) is None
        assert not target.exists()

    def test_summary_that_is_not_an_object_is_a_miss(self, tmp_path):
        store, target = _store_one(tmp_path)
        store.put(KEY, {"system": "converge"}, [1, 2], 0.1)  # type: ignore[arg-type]
        assert store.get(KEY) is None
        assert not target.exists()

    def test_marker_lookalikes_round_trip(self, tmp_path):
        store, target = _store_one(
            tmp_path / "src", summary=TRICKY_SUMMARY, cell=TRICKY_CELL
        )
        entry = store.get(KEY)
        assert entry is not None
        assert entry.summary == TRICKY_SUMMARY
        assert list(entry.summary) == sorted(TRICKY_SUMMARY)
        assert entry.cell == TRICKY_CELL
        assert entry.wall_seconds == 0.25
        shards = [tmp_path / "s0", tmp_path / "s1", tmp_path / "s2"]
        assert sum(store.shard(shards)) == 1
        merged = ResultCache(tmp_path / "merged")
        assert merged.merge(shards) == {"merged": 1, "skipped": 0}
        assert merged.path_for(KEY).read_bytes() == target.read_bytes()
        assert merged.get(KEY).summary == TRICKY_SUMMARY


_MARKER_NAMES = st.sampled_from(
    ["summary", "wall_seconds", "key", "checksum", "a", ',"wall_seconds":']
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(
        [KEY, '"key":"%s","summary":' % KEY, ',"wall_seconds":', '\\"', "é"]
    )
)
_SUMMARIES = st.dictionaries(
    _MARKER_NAMES,
    st.recursive(
        _LEAVES,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(_MARKER_NAMES, inner, max_size=3),
        max_leaves=12,
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(summary=_SUMMARIES, label=st.text(max_size=20))
def test_put_then_get_returns_the_summary(tmp_path_factory, summary, label):
    store = ResultCache(tmp_path_factory.mktemp("prop"))
    store.put(KEY, {"label": label}, summary, 0.5)
    entry = store.get(KEY)
    assert entry is not None
    assert entry.summary == summary
    assert types_of(entry.summary) == types_of(summary)
    assert entry.cell == {"label": label}
    assert entry.wall_seconds == 0.5
