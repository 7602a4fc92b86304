"""Tests for repro.devtools.analyze: R101's scope (the simulated-code
scan, its import closure, R100 on a stale scope entry), the CLI and
the real tree.  Local-rule and source-detector fixtures live in
``tests/test_devtools_lint.py``."""

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analyze.engine import analyze_tree, main
from repro.devtools.analyze.rules import (
    NondeterminismRule,
    in_scope,
    module_name_of,
    parse_waivers,
)
from repro.devtools.config import AnalyzeConfig, load_analyze_config
from repro.experiments.cells import SIMULATED_MODULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def scan(source, simulated, rel_path="pkg/mod.py"):
    """R101 findings of one snippet under the scope ``simulated``."""
    tree = ast.parse(textwrap.dedent(source))
    return NondeterminismRule(rel_path, simulated).check(tree)


def write_project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def analyze_project(tmp_path, files=None, simulated=(), **cfg):
    if files:
        write_project(tmp_path, files)
    config = AnalyzeConfig(paths=["pkg"], **cfg)
    return analyze_tree(
        [str(tmp_path / "pkg")], config, base=tmp_path, simulated=simulated
    )


# ---------------------------------------------------------------------------
# Module names and the scan


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert module_name_of("src/repro/flow/session.py") == (
            "repro.flow.session"
        )

    def test_init_names_the_package(self):
        assert module_name_of("src/repro/flow/__init__.py") == "repro.flow"

    def test_plain_package_path(self):
        assert module_name_of("pkg/core.py") == "pkg.core"


class TestExtraction:
    def test_source_hits_by_category(self):
        findings = scan(
            """
            import os
            import time
            import uuid
            import numpy as np

            def f():
                a = time.time()
                b = os.environ["HOME"]
                c = os.getenv("SEED")
                d = uuid.uuid4()
                e = np.random.uniform()
                return a, b, c, d, e
            """,
            ["pkg"],
        )
        categories = sorted(f.message.split(" `")[0] for f in findings)
        assert categories == [
            "OS entropy read", "environment read", "environment read",
            "global RNG draw", "wall-clock read",
        ]

    def test_seeded_rng_is_not_a_source(self):
        assert scan(
            """
            import random

            def f(rng):
                r = random.Random(7)
                return r.random() + rng.uniform(0, 1)
            """,
            ["pkg"],
        ) == []

    def test_nested_defs_flatten_into_enclosing_function(self):
        # A function entry scans its own body, nested defs included,
        # and nothing else in the file.
        findings = scan(
            """
            import time

            def outer():
                def inner():
                    return time.time()
                return inner()

            def elsewhere():
                return time.time()
            """,
            ["pkg.mod:outer"],
        )
        assert [(f.line, f.message.split("`")[1]) for f in findings] == [
            (6, "time.time")
        ]

    def test_waivers_recorded_per_line(self):
        source = textwrap.dedent(
            """
            import time

            def f():
                return time.time()  # lint: ok(R101)
            """
        )
        assert parse_waivers(source) == {5: {"R101"}}

    def test_relative_import_resolution(self):
        # Relative imports resolve against the file's own package
        # before the closure check compares them with the scope.
        source = """
            from .link import FlowLink
            from ..harness import report
        """
        [finding] = scan(
            source, ["repro.flow"], rel_path="src/repro/flow/session.py"
        )
        assert "`repro.harness.report`" in finding.message
        assert finding.line == 3
        assert scan(
            source, ["repro.flow", "repro.harness"],
            rel_path="src/repro/flow/session.py",
        ) == []

    def test_a_leftover_drift_marker_is_a_plain_comment(self, tmp_path):
        # The pair markers are retired: byte-equality tests hold the
        # two flow statements together, so a marker is not an R100.
        result = analyze_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": """
                    # drift: pair(demo) impl
                    def f(x):
                        # drift: end
                        return x  # drift: pair(demo) both
                """,
            },
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# R101 on a project: scope, waivers, excludes, the import closure, R100


TAINT_FILES = {
    "pkg/__init__.py": "",
    "pkg/clocky.py": """
        import time

        def stamp():
            return time.time()  # lint: ok(R101)
    """,
    "pkg/core.py": """
        from pkg.clocky import stamp

        class Sim:
            def run(self):
                return self.tick()

            def tick(self):
                return stamp()
    """,
    "pkg/harness.py": """
        import time

        from pkg.core import Sim

        def entry():
            return Sim().run()

        def wall():
            return time.perf_counter()
    """,
}
SCOPE = ["pkg.core", "pkg.clocky"]


def unwaived(files):
    files = dict(files)
    files["pkg/clocky.py"] = files["pkg/clocky.py"].replace(
        "  # lint: ok(R101)", ""
    )
    return files


class TestTaint:
    def test_waived_source_stays_silent(self, tmp_path):
        result = analyze_project(tmp_path, TAINT_FILES, simulated=SCOPE)
        assert result.findings == []

    def test_deleting_waiver_reports_the_sink(self, tmp_path):
        result = analyze_project(
            tmp_path, unwaived(TAINT_FILES), simulated=SCOPE
        )
        [finding] = result.findings
        assert (finding.file, finding.line) == ("pkg/clocky.py", 5)
        assert "wall-clock read `time.time`" in finding.message

    def test_path_exclusion_suppresses(self, tmp_path):
        result = analyze_project(
            tmp_path,
            unwaived(TAINT_FILES),
            simulated=SCOPE,
            exclude={"R101": ["pkg/clocky.py"]},
        )
        assert result.findings == []

    def test_unreachable_source_is_silent(self, tmp_path):
        # The harness reads the clock on purpose.  It imports simulated
        # code; the import closure keeps simulated code from importing
        # (and so from reaching) the harness.
        result = analyze_project(tmp_path, TAINT_FILES, simulated=SCOPE)
        assert result.findings == []
        result = analyze_project(
            tmp_path, simulated=[*SCOPE, "pkg.harness"]
        )
        [finding] = result.findings
        assert (finding.file, finding.line) == ("pkg/harness.py", 10)

    def test_an_import_from_outside_the_scope_is_an_error(self, tmp_path):
        # What reachability used to follow: the scan cannot see into
        # clocky.py unless it is in the scope, so importing it is the
        # finding, at the import's file:line.
        result = analyze_project(
            tmp_path, unwaived(TAINT_FILES), simulated=["pkg.core"]
        )
        [finding] = result.findings
        assert (finding.rule, finding.file, finding.line) == (
            "R101", "pkg/core.py", 2
        )
        assert "`pkg.clocky.stamp`" in finding.message

    def test_type_checking_imports_are_exempt(self, tmp_path):
        result = analyze_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/harness.py": "x = 1\n",
                "pkg/core.py": """
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from pkg.harness import x
                    else:
                        import pkg.harness
                """,
            },
            simulated=["pkg.core"],
        )
        [finding] = result.findings
        assert (finding.file, finding.line) == ("pkg/core.py", 7)

    def test_a_function_entry_is_held_to_the_imports_it_loads(
        self, tmp_path
    ):
        files = {
            "pkg/__init__.py": "",
            "pkg/core.py": "def run():\n    return 1\n",
            "pkg/harness.py": """
                import time

                from pkg.core import run
                from pkg.cache import lookup
                from pkg.store import save

                def execute():
                    from pkg.fleet import plan
                    return run(lookup())

                def sweep():
                    save(time.time())
                    return execute()
            """,
        }
        result = analyze_project(
            tmp_path, files, simulated=["pkg.core", "pkg.harness:execute"]
        )
        # `lookup` is module-level and execute() loads it, `plan` is
        # imported in its body; `save` is module-level too, but only
        # sweep() loads it, and sweep() is not in scope.
        assert [(f.file, f.line) for f in result.findings] == [
            ("pkg/harness.py", 5), ("pkg/harness.py", 9)
        ]
        assert "`pkg.cache.lookup`" in result.findings[0].message
        assert "`pkg.fleet.plan`" in result.findings[1].message

    @pytest.mark.parametrize(
        "entry, what",
        [("pkg.gone", "module"), ("pkg.core:renamed", "function")],
    )
    def test_a_stale_scope_entry_is_r100(self, tmp_path, entry, what):
        result = analyze_project(
            tmp_path, TAINT_FILES, simulated=[*SCOPE, entry]
        )
        [finding] = result.findings
        assert finding.rule == "R100"
        assert f"'{entry}' names no {what}" in finding.message

    def test_an_entry_outside_the_analyzed_paths_is_not_stale(
        self, tmp_path
    ):
        result = analyze_project(
            tmp_path, TAINT_FILES, simulated=[*SCOPE, "other.thing"]
        )
        assert result.findings == []


# ---------------------------------------------------------------------------
# The real tree


@pytest.fixture(scope="module")
def real_tree():
    """One analysis of src/repro under the committed config, shared by
    every check that does not mutate the tree."""
    config = load_analyze_config(REPO_ROOT / "pyproject.toml")
    return config, analyze_tree(
        [str(REPO_ROOT / "src" / "repro")], config, base=REPO_ROOT
    )


def mutate(tmp_path, rel_path, needle, replacement):
    """Copy one file of the real tree into ``tmp_path`` at the same
    relative path, with ``needle`` replaced, and analyze that file
    alone under the committed config: every rule is per file."""
    text = (REPO_ROOT / rel_path).read_text()
    assert text.count(needle) == 1, needle
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True)
    target.write_text(text.replace(needle, replacement))
    config = load_analyze_config(REPO_ROOT / "pyproject.toml")
    return analyze_tree([str(target)], config, base=tmp_path)


class TestRealTree:
    def test_repo_tree_is_clean(self, real_tree):
        _config, result = real_tree
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings
        )
        assert result.modules > 100

    @pytest.mark.parametrize(
        "rel_path, needle, module, call",
        [
            (
                "src/repro/receiver/session.py",  # ReceiverSession.on_packet
                '"""Entry point for every packet delivered by any path."""\n',
                "time",
                "time.time",
            ),
            (
                "src/repro/cc/gcc.py",  # ...Control.on_transport_feedback
                "        usage = USAGE_NORMAL\n",
                "random",
                "random.random",
            ),
            (
                "src/repro/experiments/fig11_feedback.py",  # fig11_paths
                "        low_phase = not low_phase\n",
                "time",
                "time.time",
            ),
        ],
        ids=[
            "receiver-on_packet",
            "gcc-on_transport_feedback",
            "fig11_paths-builder",
        ],
    )
    def test_source_in_a_stored_callback_fails_r101(
        self, tmp_path, rel_path, needle, module, call
    ):
        # The methods run through stored callbacks and the path builder
        # through BuilderPaths' importlib lookup, none of which a call
        # graph follows; scanning the whole file (or fig11_paths'
        # body) is what reports them.
        result = mutate(
            tmp_path,
            rel_path,
            needle,
            f"{needle}        import {module}\n        {call}()\n",
        )
        [finding] = result.findings
        assert (finding.rule, finding.file) == ("R101", rel_path)
        assert f"`{call}`" in finding.message

    @pytest.mark.parametrize(
        "needle, caught",
        [
            ("    return result_to_dict(run_cell(cell, profiler))", True),
            ("    queue = list(items)\n    jobs = min(", False),
        ],
        ids=["execute_cell", "_run_workers"],
    )
    def test_a_clock_in_the_runner_fails_only_inside_execute_cell(
        self, tmp_path, needle, caught
    ):
        # execute_cell runs inside the cell; _run_workers is the harness
        # that times it, in the same file.
        rel_path = "src/repro/experiments/runner.py"
        result = mutate(
            tmp_path, rel_path, needle, f"    time.time()\n{needle}"
        )
        found = [(f.rule, f.file) for f in result.findings]
        assert found == ([("R101", rel_path)] if caught else [])

    def test_a_harness_import_into_simulated_code_fails_r101(
        self, tmp_path
    ):
        # Legal Python, no behaviour change, every test passes -- and
        # now a fleet edit can move a payload without moving the key.
        rel_path = "src/repro/flow/link.py"
        needle = "from __future__ import annotations\n"
        result = mutate(
            tmp_path,
            rel_path,
            needle,
            f"{needle}import repro.experiments.fleet\n",
        )
        [finding] = result.findings
        assert (finding.rule, finding.file) == ("R101", rel_path)
        assert "`repro.experiments.fleet`" in finding.message

    def test_a_renamed_path_function_is_exit_one(self, tmp_path, capsys):
        # BuilderPaths names fig11_paths by string, so renaming the def
        # alone breaks nothing at import time; the scope entry is stale
        # and code_version() would hash a file without that function.
        rel_path = "src/repro/experiments/fig11_feedback.py"
        text = (REPO_ROOT / rel_path).read_text()
        assert text.count("def fig11_paths(") == 1
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True)
        target.write_text(
            text.replace("def fig11_paths(", "def fig11_fade_paths(")
        )
        (tmp_path / "pyproject.toml").write_text(
            (REPO_ROOT / "pyproject.toml").read_text()
        )
        code = main(
            ["--config", str(tmp_path / "pyproject.toml"), str(target)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert (
            "R100 [error] SIMULATED_MODULES entry "
            "'repro.experiments.fig11_feedback:fig11_paths' names no "
            "function" in out
        )

    @pytest.mark.parametrize(
        "rel_path, needle, replacement",
        [
            (
                "src/repro/net/path.py",
                "sim.post(delay, self._deliver, packet)",
                "sim.post(delay, lambda: self._deliver(packet))",
            ),
            (
                "src/repro/experiments/runner.py",
                "target=_worker_main, args=(child, store), daemon=True",
                "target=lambda: _worker_main(child, store), daemon=True",
            ),
        ],
        ids=["path-post", "runner-process-target"],
    )
    def test_a_closure_where_it_costs_fails_r006(
        self, tmp_path, rel_path, needle, replacement
    ):
        # Nothing else notices either: the goldens hold with a closure
        # per packet, and the tests fork, where a lambda target works.
        result = mutate(tmp_path, rel_path, needle, replacement)
        [finding] = result.findings
        assert (finding.rule, finding.file) == ("R006", rel_path)

    @pytest.mark.parametrize(
        "rule, rel_path, needle, replacement",
        [
            (
                "R004",
                "src/repro/core/path_manager.py",
                "not math.isinf(gcc.min_rtt)",
                "gcc.min_rtt != math.inf",
            ),
            (
                "R005",
                "src/repro/simulation/events.py",
                '    __slots__ = ("time", "callback", "arg", "cancelled", '
                '"_queue", "_queued")\n',
                "",
            ),
            (
                "R007",
                "src/repro/cc/delay_based.py",
                "now: float, num_samples: int) -> BandwidthUsage:",
                "now: float, num_samples: int, history=deque()) "
                "-> BandwidthUsage:",
            ),
        ],
        ids=["r004-min_rtt-inf", "r005-event-slots", "r007-detect-deque"],
    )
    def test_a_local_rule_catches_what_nothing_else_does(
        self, tmp_path, rule, rel_path, needle, replacement
    ):
        # None of these changes behaviour today, so the goldens, the
        # digests and every other test pass with it: `!= math.inf`
        # agrees with `isinf` until a value turns -inf, an unslotted
        # Event costs a __dict__ per event, and the shared deque would
        # leak state across calls only once something appends to it.
        result = mutate(tmp_path, rel_path, needle, replacement)
        [finding] = result.findings
        assert (finding.rule, finding.file) == (rule, rel_path)

    def test_every_path_builder_is_a_simulated_function(self):
        # BuilderPaths("module:function") is resolved by import inside
        # execute_cell, so the function is simulated code whatever
        # module it lives in: each literal under src/repro must be a
        # SIMULATED_MODULES entry, or lie in a module scanned whole.
        referenced = sorted(
            {
                match
                for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
                for match in re.findall(
                    r'BuilderPaths\(\s*"([\w.]+:\w+)"', path.read_text()
                )
            }
        )
        assert "repro.experiments.fig11_feedback:fig11_paths" in referenced
        assert [
            name
            for name in referenced
            if name not in SIMULATED_MODULES
            and not any(
                in_scope(name.partition(":")[0], entry)
                for entry in SIMULATED_MODULES
            )
        ] == []

    def test_only_cells_py_carries_an_r101_waiver(self):
        # The harness is out of scope by construction, so it needs no
        # waivers; the one deliberate source in scope is cell_key's
        # REPRO_CACHE_SALT read.
        waived = sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "src").rglob("*.py")
            if "devtools" not in path.parts
            and "lint: ok(" in path.read_text()
        )
        assert waived == ["src/repro/experiments/cells.py"]
        cells = (REPO_ROOT / waived[0]).read_text()
        assert cells.count("lint: ok(") == 1
        assert cells.count('"REPRO_CACHE_SALT", "")  # lint: ok(R101)') == 1

    def test_removing_profiling_exclusion_surfaces_its_clock_reads(
        self, real_tree
    ):
        # The exclude is the only thing keeping the clean tree clean,
        # and it hides the profiler's own clock reads and nothing else.
        config, clean = real_tree
        profiling = "src/repro/simulation/profiling.py"
        assert clean.findings == []
        assert config.exclude == {"R101": [profiling]}
        result = analyze_tree(
            [str(REPO_ROOT / profiling)], AnalyzeConfig(), base=REPO_ROOT
        )
        assert len(result.findings) == 4
        assert {(f.rule, f.file) for f in result.findings} == {
            ("R101", profiling)
        }


# ---------------------------------------------------------------------------
# CLI


def write_cli_project(tmp_path, files):
    write_project(tmp_path, files)
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-analyze]\npaths = ["pkg"]\n'
    )


CLEAN_FILES = {"pkg/__init__.py": "", "pkg/mod.py": "def f():\n    return 1\n"}


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_cli_project(tmp_path, CLEAN_FILES)
        code = main(["--config", str(tmp_path / "pyproject.toml")])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro analyze: clean" in out
        assert "module(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        # The CLI's scope is SIMULATED_MODULES, so the clock sits in a
        # module of a simulated package.
        write_project(
            tmp_path,
            {"src/repro/net/clocky.py": "import time\nt = time.time()\n"},
        )
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analyze]\npaths = ["src/repro/net"]\n'
        )
        code = main(["--config", str(tmp_path / "pyproject.toml")])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/repro/net/clocky.py:2: R101" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analyze]\npaths = ["nowhere"]\n'
        )
        code = main(["--config", str(tmp_path / "pyproject.toml")])
        assert code == 2

    def test_json_format(self, tmp_path, capsys):
        write_cli_project(tmp_path, CLEAN_FILES)
        code = main(
            ["--config", str(tmp_path / "pyproject.toml"), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["tool"] == "repro-analyze"
        assert payload["errors"] == 0
        assert payload["stats"]["modules"] == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "R004", "R005", "R006", "R007", "R100", "R101"
        ]

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        write_cli_project(tmp_path, CLEAN_FILES)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.devtools.analyze",
                "--config", str(tmp_path / "pyproject.toml"),
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert "repro analyze: clean" in proc.stdout
