"""Tests for the command-line interface."""

import json

import pytest

import repro.flow.batch as batch_mod
from repro.cli import build_parser, main
from repro.core.config import SystemKind

from tests.batch_spy import poison_seed

TINY_RUN = ["run", "--duration", "1", "--fidelity", "flow"]
TINY_FLEET = [
    "fleet", "--scenarios", "driving", "--systems", "converge",
    "--seeds", "2", "--duration", "1",
]
TINY_PROFILE = ["profile", "fig14", "--duration", "1", "--limit", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "quic"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.system == "converge"
        assert args.scenario == "driving"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--duration", "-5"],
            ["run", "--streams", "0"],
            ["experiment", "fig01", "--duration", "0"],
            ["fleet", "--seeds", "0", "--duration", "1"],
            [*TINY_FLEET, "--resamples", "0"],
            [*TINY_FLEET, "--resamples", "-5"],
            [*TINY_FLEET, "--confidence", "0"],
            [*TINY_FLEET, "--confidence", "2"],
            [*TINY_RUN, "--jobs", "0"],
            [*TINY_RUN, "--cell-timeout", "0"],
            [*TINY_PROFILE, "--limit", "0"],
            [*TINY_PROFILE, "--top", "0"],
            ["cache", "shard", "--shards", "0", "--out", "shards"],
        ],
    )
    def test_non_positive_numbers_are_usage_errors(self, argv, capsys):
        # Regression: --duration/--streams ended in a ValueError
        # traceback and --seeds 0 ran one seed; --resamples and
        # --confidence failed only after every cell had run; --jobs 0
        # ran serially, --cell-timeout 0 with no deadline, --top 0
        # profiled anyway, and --limit 0 and --shards 0 exited through
        # checks of their own.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "converge" in out
        assert "driving" in out
        assert "fig12" in out

    def test_run_prints_summary(self, capsys):
        code = main([
            "run", "--system", "webrtc", "--scenario", "stationary",
            "--duration", "5", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "average FPS" in out
        assert "FEC overhead" in out

    def test_run_with_json_and_plot(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code = main([
            "run", "--duration", "5", "--plot", "--json", str(target),
        ])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["config"]["system"] == "converge"
        out = capsys.readouterr().out
        assert "received rate" in out

    def test_run_ablation_flags(self, capsys):
        code = main([
            "run", "--duration", "5", "--no-feedback", "--fec", "none",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FEC overhead (%)      0.000" in out or "0.000" in out

    def test_experiment_traces(self, capsys):
        assert main(["experiment", "traces", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "driving" in out

    def test_fleet_one_packet_seed_per_system(self, capsys):
        code = main([
            "fleet", "--scenarios", "stationary", "--seeds", "1",
            "--duration", "5", "--fidelity", "packet", "--jobs", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "QP [95%]" in lines[0]
        systems = [line.split()[1] for line in lines[2:8]]
        assert systems == [s.value for s in SystemKind]
        assert all(line.startswith("stationary") for line in lines[2:8])

    def test_run_with_chaos_path_churn(self, capsys, tmp_path):
        target = tmp_path / "churn.json"
        code = main([
            "run", "--chaos", "path-churn", "--scenario", "migration",
            "--duration", "4", "--fidelity", "flow", "--json", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos plan           path-churn" in out
        # Five lifecycle actions, three of which end in a "removed".
        assert "churn events         8" in out
        actions = [line.split()[0] for line in out.splitlines()
                   if line.startswith(("drain ", "birth ", "death "))]
        assert actions == ["drain", "birth", "death", "birth", "death"]
        assert "session survived churn: yes" in out
        churn = json.loads(target.read_text())["churn"]
        assert len(churn["events"]) == 8
        assert [e["action"] for e in churn["recovery"]] == actions
        assert churn["session_survived"]

    def test_run_with_chaos_rtcp_blackout(self, capsys):
        code = main([
            "run", "--chaos", "rtcp-blackout", "--duration", "6",
            "--fidelity", "flow",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected      1" in out
        rows = [line.split() for line in out.splitlines()]
        assert ["feedback-blackout", "0", "1.0-2.2"] in [r[:3] for r in rows]

    def test_profile_emits_accounting_and_json(self, capsys, tmp_path):
        target = tmp_path / "profile.json"
        code = main([
            "profile", "fig14", "--duration", "2", "--limit", "2",
            "--top", "5", "--json", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "subsystem" in out
        assert "cProfile hotspots" in out
        data = json.loads(target.read_text())
        assert data["experiment"] == "fig14"
        assert data["cells"] == 2
        assert data["accounting"]["events_total"] > 0
        assert data["events_per_second"] > 0
        assert data["hotspots"], "expected at least one repro hotspot"

    @pytest.mark.parametrize("command", ["fleet"])
    def test_failed_cells_are_named(self, command, capsys, monkeypatch):
        poison_seed(monkeypatch, 2)
        code = main([
            command, "--scenarios", "driving", "--systems", "converge",
            "--seeds", "3", "--duration", "2", "--fidelity", "flow",
            "--jobs", "1",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 errors" in out
        assert "quarantined 1 poison cell(s): converge seed=2" in out

    @pytest.mark.parametrize(
        "argv", [["fleet", "--mode", "batch"], ["fleet", "--mode", "scalar"]]
    )
    def test_the_engine_is_not_an_option(self, argv):
        # The runner picks it, from group width, workers and deadline.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_pair_acknowledgement_is_not_an_option(self):
        # The flow pair is pinned by byte-equality tests, not by
        # hashes someone re-acknowledges.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["analyze", "--update-pairs"])
        assert exit_info.value.code == 2

    def test_profile_rejects_experiment_without_cells(self):
        # The trace statistics simulate no calls: nothing to profile.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "traces"])

    @pytest.mark.parametrize(
        "command, cell",
        [
            (["experiment", "fig01"], "cell 'webrtc-tmobile' (seed 1)"),
            (["run"], "cell 'converge' (seed 1)"),
        ],
    )
    def test_cell_timeout_ends_the_command_with_one_line(
        self, command, cell, capsys
    ):
        # --cell-timeout reaches the runner from every command, and a
        # figure with a failed cell is an error, not a traceback.
        code = main([
            *command, "--duration", "4", "--jobs", "1",
            "--cell-timeout", "0.001",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: {cell} failed: CellTimeout" in captured.err
        assert "Traceback" not in captured.err
        assert "Figure 1" not in captured.out

    def test_every_experiment_takes_flow_fidelity(self, capsys):
        code = main([
            "experiment", "fig03", "--fidelity", "flow", "--duration", "4",
        ])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fleet_names_batch_fallbacks_without_progress(
        self, capsys, monkeypatch
    ):
        def broken(_cells):
            raise RuntimeError("array program crashed")

        monkeypatch.setattr(batch_mod, "iter_batch", broken)
        # 96 seeds: on one worker the runner gives a group to the array
        # program from 94 lanes.
        code = main([
            "fleet", "--scenarios", "driving", "--systems", "converge",
            "--seeds", "96", "--duration", "2", "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert (
            "96 fell back from a failed batch "
            "(RuntimeError: array program crashed)"
        ) in out
        assert "96 executed" in out
        assert "on the array program" not in out

    def test_lint_clean_tree_exits_zero(self, capsys):
        # The repository gates CI on its own linter, `repro analyze`:
        # the shipped tree (with the pyproject config resolved from
        # the repo root) must be clean.
        assert main(["analyze"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violation_exits_nonzero_with_rule_id(
        self, capsys, tmp_path, monkeypatch
    ):
        # R101 scans cells.SIMULATED_MODULES: a file of repro.net is in.
        bad = tmp_path / "src" / "repro" / "net" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n"
            "def stamp(events=[]):\n"
            "    return time.time() + len(events)\n"
        )
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analyze]\npaths = ["src/repro/net"]\n'
        )
        monkeypatch.chdir(tmp_path)
        assert main(["analyze"]) == 1
        out = capsys.readouterr().out
        assert "R101" in out
        assert "R007" in out

    def test_lint_json_output(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "bad.py"
        bad.write_text("def add(x, acc=[]):\n    acc.append(x)\n")
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", str(bad), "--no-config", "--format",
                     "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "R007"
