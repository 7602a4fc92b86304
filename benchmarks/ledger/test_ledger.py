"""The ledger end to end at smoke scale: ``run.py --smoke`` must print
and record every metric ``BENCHMARK.json`` declares, for every workload,
with a well-formed span tree, and agree with itself under ``compare.py``.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/ledger/test_ledger.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import compare  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def bench():
    return record.load_benchmark()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger-smoke")
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return {
        "stdout": done.stdout,
        "record": json.loads((out / "ledger.json").read_text()),
        "spans": spans.read_jsonl(out / "trace.jsonl"),
        "path": out / "ledger.json",
    }


def test_benchmark_json_names_are_well_formed(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert record.NAME_RE.match(name), name
    assert bench["paths"] == ["benchmarks/ledger"]
    setup = record.declared(bench, "end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_record_validates_against_schema(smoke, bench):
    assert record.validate_record(smoke["record"], bench) == []


def test_every_metric_present_for_every_workload(smoke, bench):
    workloads = smoke["record"]["workloads"]
    assert sorted(workloads) == sorted(record.workload_names(bench))
    for name, entry in workloads.items():
        for section in ("end_to_end", "per_layer"):
            assert sorted(entry[section]) == sorted(m["name"] for m in bench[section])
            for metric, value in entry[section].items():
                assert f"{metric} " in smoke["stdout"], (name, metric)
                assert value["unit"] == record.declared(bench, section)[metric]["unit"]


def test_outputs_checked_and_clean(smoke):
    for name, entry in smoke["record"]["workloads"].items():
        assert entry["checks"]["attempted"] > 0, name
        assert entry["failed"] == 0, (name, entry["checks"]["failures"])
        assert entry["traced_checks"]["failed"] == 0, name
        assert entry["end_to_end"]["ok_share"]["value"] == 1.0
    packet = smoke["record"]["workloads"]["packet-figs"]
    assert packet["ref_error_max"] == 0.0


def test_span_tree_is_well_formed(smoke, bench):
    tree = smoke["spans"]
    assert spans.tree_problems(tree) == []
    assert {s["workload"] for s in tree} == set(record.workload_names(bench))
    layers = {spans.layer_of(s["name"]) for s in tree}
    assert {"core", "flow", "traces", "analysis", "experiments.cache",
            "experiments.runner", "experiments.fleet", "ledger"} <= layers


def test_record_compares_ok_against_itself(smoke, bench):
    rows = compare.compare(smoke["record"], smoke["record"], bench)
    assert len(rows) == len(bench["workloads"]) * len(bench["end_to_end"])
    assert {row["verdict"] for row in rows} == {"ok"}
    assert compare.main([str(smoke["path"]), str(smoke["path"])]) == 0


def test_compare_flags_a_slowdown_beyond_the_bound(smoke, bench):
    slow = json.loads(json.dumps(smoke["record"]))
    entry = slow["workloads"]["flow-figs"]
    entry["end_to_end"]["cells_per_cal_s"]["value"] *= 0.5
    for key in ("cal_p25_s", "cal_median_s", "cal_p75_s"):
        entry["passes"][key] *= 2.0
    verdicts = {
        (row["workload"], row["metric"]): row["verdict"]
        for row in compare.compare(smoke["record"], slow, bench)
    }
    assert verdicts[("flow-figs", "cells_per_cal_s")] == "regressed"
    assert verdicts[("packet-figs", "cells_per_cal_s")] == "ok"


def verdict_of(base, new, bench, workload, metric):
    return next(
        row["verdict"] for row in compare.compare(base, new, bench)
        if (row["workload"], row["metric"]) == (workload, metric)
    )


def test_one_failed_check_is_a_regression(smoke, bench, monkeypatch, tmp_path):
    real_child = run.run_child

    def one_check_flipped(*args, **kwargs):
        child = real_child(*args, **kwargs)
        child["checks"][-1][1] = False
        return child

    monkeypatch.setattr(run, "run_child", one_check_flipped)
    entry = run.untraced_run("fleet-wide", 1, "smoke", 0.0, tmp_path, bench)
    assert entry["failed"] == 1
    bound = record.declared(bench, "end_to_end")["ok_share"]["bound"]
    assert entry["end_to_end"]["ok_share"]["value"] < 1.0 - bound

    broken = json.loads(json.dumps(smoke["record"]))
    broken["workloads"]["fleet-wide"].update(entry)
    assert verdict_of(smoke["record"], broken, bench,
                      "fleet-wide", "ok_share") == "regressed"
    assert compare.main([str(smoke["path"]), str(smoke["path"])]) == 0
    # Counts gate on their own, whatever the share is taken over ...
    broken["workloads"]["fleet-wide"]["end_to_end"]["ok_share"]["value"] = 1.0
    assert verdict_of(smoke["record"], broken, bench,
                      "fleet-wide", "ok_share") == "regressed"
    # ... and the traced run's checks count too.
    traced = json.loads(json.dumps(smoke["record"]))
    traced["workloads"]["packet-figs"]["traced_checks"]["failed"] = 1
    assert verdict_of(smoke["record"], traced, bench,
                      "packet-figs", "ok_share") == "regressed"


def test_one_failed_cell_moves_ok_share_beyond_its_bound(bench, monkeypatch):
    monkeypatch.syspath_prepend(str(record.ROOT / "src"))
    import workloads

    bound = record.declared(bench, "end_to_end")["ok_share"]["bound"]
    for cls in workloads.WORKLOADS.values():
        workload = cls(workloads.SCALES["full"])
        cells = workload.cells_delivered(workload.inputs(1))
        assert 1.0 / cells > bound, workload.name


def test_sets_of_runs_that_interleave_are_unresolved(smoke, bench):
    def set_of(*setups):
        records = []
        for setup in setups:
            copy = json.loads(json.dumps(smoke["record"]))
            copy["workloads"]["flow-figs"]["end_to_end"]["setup_s"]["value"] = setup
            records.append(copy)
        return compare.median_record(records)

    base = set_of(1.0, 1.1, 2.0)
    interleaved = set_of(1.05, 1.6, 1.7)
    apart = set_of(3.0, 3.1, 3.2)
    assert verdict_of(base, interleaved, bench, "flow-figs", "setup_s") == "unresolved"
    assert verdict_of(base, apart, bench, "flow-figs", "setup_s") == "regressed"
    assert verdict_of(apart, base, bench, "flow-figs", "setup_s") == "ok"
