"""Golden-summary determinism regression suite.

One short driving cell per scheduler is pinned as a JSON fixture in
``tests/goldens/``.  The test recomputes each cell and asserts the
result is byte-identical — serially, across worker processes, and out
of the cache — to the committed golden.  Any drift in simulation
behaviour (intended or not) shows up here as a readable per-field
diff before it silently shifts the paper's figures.

Regenerate after an intended behaviour change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_determinism.py

and commit the updated fixtures (stale caches die by themselves: the
edit that moved the payload moved ``cells.code_version()``, the digest
of the simulated source in every cache key).

The flow backend is pinned the same way by *reference data*: one
sha256 per short flow cell in ``tests/goldens/flow/digests.json``
(a subdirectory, because every ``tests/goldens/*.json`` stem is read
as a packet golden elsewhere).  The scalar ``FlowCall.run`` loop has
no second copy to be compared against; these digests, generated before
a refactor and required to hold after it, are what says the loop still
computes what it did.

The packet core is pinned wider than the six full fixtures the same
way, in ``tests/goldens/packet/digests.json``: event-order changes in
the simulator are tie-sensitive exactly where six driving cells do not
look (a shrunken queue, same-instant sends, a path dying with a pacer
release pending), so every figure cell shape, every chaos plan on two
scenarios and a two-stream call are each held to one sha256, on two
seeds.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.config import SystemKind
from repro.experiments.cells import ScenarioPaths, canonical_json, make_cell
from repro.experiments.fig14_15_comparison import RUNS
from repro.experiments.runner import execute_cell, results_of, run_cells
from repro.faults.scenarios import chaos_scenario_names

GOLDEN_DIR = Path(__file__).parent / "goldens"
FLOW_DIGESTS = GOLDEN_DIR / "flow" / "digests.json"
PACKET_DIGESTS = GOLDEN_DIR / "packet" / "digests.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

# One cell per scheduler; short enough to run in CI, long enough to
# exercise scheduling, FEC, feedback and playout.
SYSTEMS = (
    SystemKind.CONVERGE,
    SystemKind.MRTP,
    SystemKind.MTPUT,
    SystemKind.SRTT,
    SystemKind.WEBRTC,
)
DURATION = 4.0
SEED = 1


def golden_cell(system: SystemKind):
    return make_cell(
        ScenarioPaths("driving"),
        system,
        seed=SEED,
        duration=DURATION,
    )


def churn_cell():
    """The migration scenario under path churn: pins the whole
    lifecycle machinery (drain, abrupt death, mid-call births, the
    in-flight reroute) to a byte-exact fixture."""
    return make_cell(
        ScenarioPaths("migration"),
        SystemKind.CONVERGE,
        seed=SEED,
        duration=DURATION,
        chaos="path-churn",
    )


def golden_path(system: SystemKind) -> Path:
    return GOLDEN_DIR / f"{system.value.replace('/', '_')}.json"


def payload_sha256(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def golden_record(payload: dict) -> dict:
    """What the fixture stores: the scalar summary, the shape of the
    series, and a hash over the entire canonical payload.

    The summary fields give a readable diff when behaviour drifts; the
    hash catches drift anywhere else (series values, path accounting).
    """
    return {
        "summary": payload["summary"],
        "series_lengths": {
            name: len(series["times"]) if isinstance(series, dict) and "times" in series
            else len(series)
            for name, series in payload["series"].items()
        },
        "payload_sha256": payload_sha256(payload),
    }


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Each golden cell computed three ways: serial, pooled, cached."""
    cells = [golden_cell(system) for system in SYSTEMS]
    cache_dir = tmp_path_factory.mktemp("golden-cache")
    serial = [s.data for s in results_of(run_cells(cells, jobs=1))]
    pooled = [
        s.data
        for s in results_of(run_cells(cells, jobs=2, cache=cache_dir))
    ]
    cached = [
        s.data
        for s in results_of(run_cells(cells, jobs=2, cache=cache_dir))
    ]
    return {"serial": serial, "pooled": pooled, "cached": cached}


@pytest.mark.parametrize("index,system", list(enumerate(SYSTEMS)),
                         ids=[s.value for s in SYSTEMS])
class TestGoldenDeterminism:
    def test_serial_pool_cache_identical(self, payloads, index, system):
        serial = payloads["serial"][index]
        pooled = payloads["pooled"][index]
        cached = payloads["cached"][index]
        # Readable diff first (pytest renders dict mismatches), then
        # the byte-level guarantee.
        assert serial["summary"] == pooled["summary"]
        assert serial["summary"] == cached["summary"]
        assert canonical_json(serial) == canonical_json(pooled)
        assert canonical_json(serial) == canonical_json(cached)

    def test_matches_golden(self, payloads, index, system):
        record = golden_record(payloads["serial"][index])
        _assert_matches_golden(record, golden_path(system), system.value)


def _assert_matches_golden(record: dict, path: Path, name: str) -> None:
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True))
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; generate with "
            "REPRO_UPDATE_GOLDENS=1"
        )
    golden = json.loads(path.read_text())
    # Field-by-field on the summary: the assertion message names
    # exactly which QoE metric moved and by how much.
    for field_name, expected in golden["summary"].items():
        actual = record["summary"].get(field_name)
        assert actual == expected, (
            f"{name}: summary field {field_name!r} drifted: "
            f"golden={expected!r} actual={actual!r} — if intended, "
            "regenerate with REPRO_UPDATE_GOLDENS=1"
        )
    assert record["series_lengths"] == golden["series_lengths"]
    assert record["payload_sha256"] == golden["payload_sha256"], (
        f"{name}: summary matches but the full payload hash "
        "drifted (series or path accounting changed) — if intended, "
        "regenerate with REPRO_UPDATE_GOLDENS=1"
    )


class TestChurnGolden:
    """Byte-exact determinism of a call under path membership churn."""

    @pytest.fixture(scope="class")
    def churn_payloads(self, tmp_path_factory):
        cell = churn_cell()
        cache_dir = tmp_path_factory.mktemp("churn-golden-cache")
        serial = results_of(run_cells([cell], jobs=1))[0].data
        cached_first = results_of(
            run_cells([cell], jobs=1, cache=cache_dir)
        )[0].data
        cached = results_of(
            run_cells([cell], jobs=1, cache=cache_dir)
        )[0].data
        return {"serial": serial, "fresh": cached_first, "cached": cached}

    def test_serial_and_cached_identical(self, churn_payloads):
        serial = churn_payloads["serial"]
        assert canonical_json(serial) == canonical_json(
            churn_payloads["fresh"]
        )
        assert canonical_json(serial) == canonical_json(
            churn_payloads["cached"]
        )

    def test_session_survives_churn(self, churn_payloads):
        churn = churn_payloads["serial"]["churn"]
        assert churn["session_survived"] is True
        assert len(churn["events"]) >= 5  # drain+births+deaths+removals

    def test_matches_golden(self, churn_payloads):
        record = golden_record(churn_payloads["serial"])
        _assert_matches_golden(
            record,
            GOLDEN_DIR / "converge_path-churn.json",
            "converge+path-churn",
        )


# ---------------------------------------------------------------------------
# Flow digests


# Long enough for a GOP boundary (grid) and for the fault windows to
# outlast WebRTC-CM's 2 s failure timeout (chaos: the uplink-death
# window is a fifth of the call).
FLOW_GRID_DURATION = 4.0
FLOW_CHAOS_DURATION = 12.0
FLOW_CHAOS = (
    ("rtcp-blackout", "driving"),
    ("loss-storm", "driving"),
    ("uplink-death", "driving"),
    ("path-churn", "migration"),
    ("wifi-lte-migration", "migration"),
)
FLOW_CHAOS_SYSTEMS = (
    SystemKind.CONVERGE,
    SystemKind.WEBRTC_CM,
    SystemKind.MRTP,
)


def flow_digest_cells() -> dict:
    """The seven Fig. 14 rows x scenario x 1-3 streams, and five chaos
    plans x three systems x 1-2 streams, by name."""
    cells = {}
    for scenario in ("stationary", "walking", "driving"):
        for system, path_id, label in RUNS:
            for streams in (1, 2, 3):
                name = f"{label or system.value}/{scenario}/x{streams}"
                cells[name] = make_cell(
                    ScenarioPaths(scenario),
                    system,
                    seed=SEED,
                    duration=FLOW_GRID_DURATION,
                    num_streams=streams,
                    single_path_id=path_id,
                    label=label,
                    fidelity="flow",
                )
    for chaos, scenario in FLOW_CHAOS:
        for system in FLOW_CHAOS_SYSTEMS:
            for streams in (1, 2):
                name = f"{system.value}+{chaos}/{scenario}/x{streams}"
                cells[name] = make_cell(
                    ScenarioPaths(scenario),
                    system,
                    seed=SEED,
                    duration=FLOW_CHAOS_DURATION,
                    num_streams=streams,
                    chaos=chaos,
                    fidelity="flow",
                )
    return cells


def _digests_of(cells: dict, pinned_at: Path) -> dict:
    """One sha256 per named cell, each run once through ``execute_cell``;
    under ``REPRO_UPDATE_GOLDENS=1`` also rewrites ``pinned_at``."""
    digests = {
        name: payload_sha256(execute_cell(cell))
        for name, cell in cells.items()
    }
    if UPDATE:
        pinned_at.parent.mkdir(parents=True, exist_ok=True)
        pinned_at.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n"
        )
    return digests


def _assert_pinned(digests: dict, name: str, pinned_at: Path) -> None:
    if UPDATE:
        pytest.skip(f"regenerated {pinned_at.name}")
    pinned = json.loads(pinned_at.read_text())
    kind = pinned_at.parent.name
    assert digests[name] == pinned[name], (
        f"{name}: {kind} payload drifted from tests/goldens/{kind}/"
        "digests.json — if intended, regenerate with "
        "REPRO_UPDATE_GOLDENS=1 and name the cells that moved in "
        "CHANGES.md"
    )


@pytest.fixture(scope="module")
def flow_digests():
    """Every digest cell run once through the scalar flow session."""
    return _digests_of(flow_digest_cells(), FLOW_DIGESTS)


@pytest.mark.parametrize("name", sorted(flow_digest_cells()))
def test_flow_digest(flow_digests, name):
    _assert_pinned(flow_digests, name, FLOW_DIGESTS)


# ---------------------------------------------------------------------------
# Packet digests


PACKET_DIGEST_DURATION = 4.0
PACKET_DIGEST_SEEDS = (1, 2)


def packet_digest_cells() -> dict:
    """The ten ``packet-figs`` cell shapes of the perf ledger (the seven
    Fig. 14 rows on driving, Converge on stationary and walking,
    Converge on migration under path churn), Converge under every
    chaos plan on driving and on migration, and one two-stream
    Converge call — each on two seeds, by name."""
    converge = SystemKind.CONVERGE
    shapes = [
        (f"{label or system.value}/driving/x1", "driving", system,
         dict(single_path_id=path_id, label=label))
        for system, path_id, label in RUNS
    ]
    shapes += [
        (f"converge/{scenario}/x1", scenario, converge, {})
        for scenario in ("stationary", "walking")
    ]
    shapes += [
        (f"converge+{chaos}/{scenario}/x1", scenario, converge,
         dict(chaos=chaos))
        for chaos in chaos_scenario_names()
        for scenario in ("driving", "migration")
    ]
    shapes.append(
        ("converge/driving/x2", "driving", converge, dict(num_streams=2))
    )
    return {
        f"{name}/s{seed}": make_cell(
            ScenarioPaths(scenario), system, seed=seed,
            duration=PACKET_DIGEST_DURATION, **kwargs,
        )
        for name, scenario, system, kwargs in shapes
        for seed in PACKET_DIGEST_SEEDS
    }


@pytest.fixture(scope="module")
def packet_digests():
    return _digests_of(packet_digest_cells(), PACKET_DIGESTS)


@pytest.mark.parametrize("name", sorted(packet_digest_cells()))
def test_packet_digest(packet_digests, name):
    _assert_pinned(packet_digests, name, PACKET_DIGESTS)
