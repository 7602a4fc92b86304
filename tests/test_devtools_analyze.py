"""Tests for repro.devtools.analyze: the whole-program side of
``repro analyze`` (symbols, call graph, R100, R101, CLI, the real
tree).  Local-rule and source-detector
fixtures live in ``tests/test_devtools_lint.py``."""

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analyze.callgraph import ProgramIndex
from repro.devtools.analyze.engine import analyze_tree, main
from repro.devtools.analyze.model import Severity
from repro.devtools.analyze.symbols import (
    extract_module,
    module_name_of,
    strip_type_text,
)
from repro.devtools.analyze.taint import reachable_from
from repro.devtools.config import AnalyzeConfig, load_analyze_config

REPO_ROOT = Path(__file__).resolve().parent.parent


def extract(source, rel_path="pkg/mod.py"):
    return extract_module(textwrap.dedent(source), rel_path)


def build_index(files):
    summaries = [
        extract(source, rel_path) for rel_path, source in files.items()
    ]
    return ProgramIndex(summaries)


def write_project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def analyze_project(tmp_path, files=None, roots=(), **cfg):
    if files:
        write_project(tmp_path, files)
    config = AnalyzeConfig(paths=["pkg"], roots=list(roots), **cfg)
    return analyze_tree([str(tmp_path / "pkg")], config, base=tmp_path)


def analyze_repo(root=REPO_ROOT, **overrides):
    """The real tree (or a copy of it) under the committed config."""
    config = load_analyze_config(REPO_ROOT / "pyproject.toml")
    for key, value in overrides.items():
        setattr(config, key, value)
    return config, analyze_tree(
        [str(root / "src" / "repro")], config, base=root
    )


# ---------------------------------------------------------------------------
# Symbol extraction


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert module_name_of("src/repro/flow/session.py") == (
            "repro.flow.session"
        )

    def test_init_names_the_package(self):
        assert module_name_of("src/repro/flow/__init__.py") == "repro.flow"

    def test_plain_package_path(self):
        assert module_name_of("pkg/core.py") == "pkg.core"


class TestStripTypeText:
    def test_optional_and_quotes_unwrap(self):
        assert strip_type_text('Optional["FlowLink"]') == "FlowLink"

    def test_containers_collapse_to_none(self):
        assert strip_type_text("List[FlowLink]") is None
        assert strip_type_text("int | None") is None

    def test_lowercase_names_are_not_classes(self):
        assert strip_type_text("float") is None


class TestExtraction:
    def test_source_hits_by_category(self):
        summary = extract(
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
            """
        )
        hits = summary.functions["f"].source_hits
        categories = sorted(h.category for h in hits)
        assert categories == [
            "env-read", "env-read", "global-rng", "os-entropy", "wall-clock"
        ]

    def test_seeded_rng_is_not_a_source(self):
        summary = extract(
            """
            import random

            def f(rng):
                r = random.Random(7)
                return r.random() + rng.uniform(0, 1)
            """
        )
        assert summary.functions["f"].source_hits == []

    def test_nested_defs_flatten_into_enclosing_function(self):
        summary = extract(
            """
            import time

            def outer():
                def inner():
                    return time.time()
                return inner()
            """
        )
        assert "outer" in summary.functions
        assert "inner" not in summary.functions
        assert [h.call for h in summary.functions["outer"].source_hits] == [
            "time.time"
        ]

    def test_waivers_recorded_per_line(self):
        summary = extract(
            """
            import time

            def f():
                return time.time()  # lint: ok(R101)
            """
        )
        assert summary.waivers == {5: {"R101"}}

    def test_class_attr_types_from_init(self):
        summary = extract(
            """
            class Engine:
                pass

            class Car:
                def __init__(self, engine: Engine):
                    self.engine = engine
                    self.spare = Engine()
            """
        )
        info = summary.classes["Car"]
        assert info.attr_types["engine"] == "Engine"
        assert info.attr_types["spare"] == "Engine"

    def test_relative_import_resolution(self):
        summary = extract(
            """
            from .link import FlowLink
            from ..core import api
            """,
            rel_path="src/repro/flow/session.py",
        )
        assert summary.symbol_aliases["FlowLink"] == (
            "repro.flow.link.FlowLink"
        )
        assert summary.symbol_aliases["api"] == "repro.core.api"

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            extract("def broken(:\n")

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
# Call graph


GRAPH_FILES = {
    "pkg/__init__.py": "",
    "pkg/base.py": """
        class Base:
            def step(self):
                return self.helper()

            def helper(self):
                return 0
    """,
    "pkg/impl.py": """
        from pkg.base import Base

        class Impl(Base):
            def helper(self):
                return 1

        def run():
            worker = Impl()
            return worker.step()
    """,
    "pkg/other.py": """
        import time

        from pkg import impl

        def entry():
            return impl.run()

        def clock():
            return time.time()

        def registrar(sim):
            sim.schedule(0.0, clock)
    """,
}


class TestCallGraph:
    def test_constructor_and_typed_receiver_resolve(self):
        index = build_index(GRAPH_FILES)
        edges = {
            (e.callee, e.kind) for e in index.edges["pkg.impl.run"]
        }
        # Impl() -> no __init__ defined, so no edge; worker.step()
        # resolves through the annotated-constructor local type.
        assert ("pkg.base.Base.step", "call") in edges

    def test_self_call_includes_subclass_override(self):
        index = build_index(GRAPH_FILES)
        callees = {
            e.callee for e in index.edges["pkg.base.Base.step"]
        }
        assert "pkg.base.Base.helper" in callees
        assert "pkg.impl.Impl.helper" in callees

    def test_module_alias_call_resolves(self):
        index = build_index(GRAPH_FILES)
        callees = {e.callee for e in index.edges["pkg.other.entry"]}
        assert callees == {"pkg.impl.run"}

    def test_function_reference_argument_makes_ref_edge(self):
        index = build_index(GRAPH_FILES)
        ref = [
            e for e in index.edges["pkg.other.registrar"]
            if e.kind == "ref"
        ]
        assert [e.callee for e in ref] == ["pkg.other.clock"]

    def test_fallback_blocklist_suppresses_container_names(self):
        index = build_index(
            {
                "pkg/a.py": """
                    class Store:
                        def get(self, key):
                            return key

                    def use(mapping):
                        return mapping.get("x")
                """,
            }
        )
        assert index.edges["pkg.a.use"] == []

    def test_fallback_links_unresolved_method_by_name(self):
        index = build_index(
            {
                "pkg/a.py": """
                    class Engine:
                        def ignite(self):
                            return 1

                    def use(thing):
                        return thing.ignite()
                """,
            }
        )
        [edge] = index.edges["pkg.a.use"]
        assert (edge.callee, edge.kind) == (
            "pkg.a.Engine.ignite", "fallback"
        )

    def test_reachability_with_parents(self):
        index = build_index(GRAPH_FILES)
        parents = reachable_from(index, ["pkg.other.entry"])
        assert "pkg.impl.Impl.helper" in parents
        assert "pkg.other.clock" not in parents

    def test_class_root_covers_its_methods(self):
        index = build_index(GRAPH_FILES)
        roots, missing = index.resolve_roots(["pkg.base.Base"])
        assert roots == ["pkg.base.Base.step", "pkg.base.Base.helper"]
        assert missing == []

    def test_module_and_package_roots_cover_everything_under_them(self):
        index = build_index(GRAPH_FILES)
        roots, missing = index.resolve_roots(["pkg.other"])
        assert missing == []
        assert sorted(roots) == [
            "pkg.other.<module>", "pkg.other.clock", "pkg.other.entry",
            "pkg.other.registrar",
        ]
        roots, missing = index.resolve_roots(["pkg"])
        assert missing == [] and set(roots) == set(index.functions)
        # A prefix is matched on dotted components, not on characters.
        assert index.resolve_roots(["pkg.oth"]) == ([], ["pkg.oth"])

    def test_unknown_root_reported(self):
        index = build_index(GRAPH_FILES)
        roots, missing = index.resolve_roots(["pkg.nothing.Here"])
        assert roots == [] and missing == ["pkg.nothing.Here"]


# ---------------------------------------------------------------------------
# R101 taint


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
}


class TestTaint:
    def test_waived_source_stays_silent(self, tmp_path):
        result = analyze_project(
            tmp_path, TAINT_FILES, roots=["pkg.core.Sim.run"]
        )
        assert [f for f in result.findings if f.rule == "R101"] == []

    def test_deleting_waiver_reports_full_chain(self, tmp_path):
        files = dict(TAINT_FILES)
        files["pkg/clocky.py"] = files["pkg/clocky.py"].replace(
            "  # lint: ok(R101)", ""
        )
        result = analyze_project(
            tmp_path, files, roots=["pkg.core.Sim.run"]
        )
        [finding] = [f for f in result.findings if f.rule == "R101"]
        assert finding.file == "pkg/clocky.py"
        assert "time.time" in finding.message
        labels = [step.label for step in finding.chain]
        assert labels == [
            "pkg.core.Sim.run", "pkg.core.Sim.tick", "pkg.clocky.stamp"
        ]
        # The chain's intermediate lines are the call sites.
        assert finding.chain[0].file == "pkg/core.py"

    def test_path_exclusion_suppresses(self, tmp_path):
        files = dict(TAINT_FILES)
        files["pkg/clocky.py"] = files["pkg/clocky.py"].replace(
            "  # lint: ok(R101)", ""
        )
        result = analyze_project(
            tmp_path,
            files,
            roots=["pkg.core.Sim.run"],
            exclude={"R101": ["pkg/clocky.py"]},
        )
        assert [f for f in result.findings if f.rule == "R101"] == []

    def test_unreachable_source_is_silent(self, tmp_path):
        files = dict(TAINT_FILES)
        files["pkg/clocky.py"] = files["pkg/clocky.py"].replace(
            "  # lint: ok(R101)", ""
        )
        result = analyze_project(
            tmp_path, files, roots=["pkg.core.Sim.tick"]
        )
        # tick is a root; stamp is reachable.  But rooting at an
        # unrelated function must not reach it.
        result2 = analyze_project(
            tmp_path, files, roots=[]
        )
        assert any(f.rule == "R101" for f in result.findings)
        assert not any(f.rule == "R101" for f in result2.findings)


# ---------------------------------------------------------------------------
# The real tree


#: Modules outside the R101 scope: the harness around the cells.  A
#: new module lands either under a rooted prefix in pyproject.toml or
#: in this list — by hand, so "is it simulated code?" gets asked.
#: (``repro.devtools`` stands for its whole subtree.)
OUT_OF_SCOPE_MODULES = [
    "repro",
    "repro.__main__",
    "repro.cli",
    "repro.devtools",
    "repro.experiments",
    "repro.experiments.cache",
    "repro.experiments.claims",
    "repro.experiments.fig01_motivation",
    "repro.experiments.fig03_multipath_not_enough",
    "repro.experiments.fig09_10_wild",
    "repro.experiments.fig11_feedback",
    "repro.experiments.fig12_13_fec",
    "repro.experiments.fig14_15_comparison",
    "repro.experiments.fig16_17_stationary",
    "repro.experiments.figures",
    "repro.experiments.fleet",
    "repro.experiments.runner",
    "repro.experiments.sweeps",
    "repro.experiments.traces_appendix",
]


def copy_repo_tree(tmp_path):
    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro")


def mutate(path, needle, replacement):
    text = path.read_text()
    assert text.count(needle) == 1, needle
    path.write_text(text.replace(needle, replacement))


class TestRealTree:
    def test_repo_tree_is_clean(self):
        _config, result = analyze_repo()
        errors = [
            f for f in result.findings if f.severity is Severity.ERROR
        ]
        assert errors == [], "\n".join(f.format() for f in errors)

    def test_rooted_prefixes_are_fully_reachable(self):
        # Sound before small: every function of simulated code is in
        # the R101 reachable set (stored callbacks included), and what
        # is *not* simulated code is a literal list.
        config, result = analyze_repo()
        index = result.index
        prefixes = [
            spec for spec in config.roots
            if any(
                module == spec or module.startswith(spec + ".")
                for module in index.modules
            )
        ]
        # All but the function roots: execute_cell and the two
        # BuilderPaths builders inside out-of-scope harness modules.
        assert len(prefixes) == len(config.roots) - 3

        def in_scope(module):
            return any(
                module == p or module.startswith(p + ".") for p in prefixes
            )

        roots, missing = index.resolve_roots(config.roots)
        assert missing == []
        reachable = reachable_from(index, roots)
        scoped = [
            full
            for full, (summary, _info) in index.functions.items()
            if in_scope(summary.module)
        ]
        assert len(scoped) > 600
        assert [full for full in scoped if full not in reachable] == []
        assert "repro.experiments.runner.execute_cell" in reachable

        outside = sorted(
            {
                "repro.devtools"
                if module.startswith("repro.devtools")
                else module
                for module in index.modules
                if not in_scope(module)
            }
        )
        assert outside == OUT_OF_SCOPE_MODULES

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
        # graph follows; rooting them is what reports them.
        copy_repo_tree(tmp_path)
        mutate(
            tmp_path / rel_path,
            needle,
            f"{needle}        import {module}\n        {call}()\n",
        )
        _config, result = analyze_repo(tmp_path)
        [finding] = [f for f in result.findings if f.rule == "R101"]
        assert finding.file == rel_path
        assert f"`{call}`" in finding.message
        assert finding.chain

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
        copy_repo_tree(tmp_path)
        mutate(tmp_path / rel_path, needle, replacement)
        _config, result = analyze_repo(tmp_path)
        [finding] = [
            f for f in result.findings if f.severity is Severity.ERROR
        ]
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
        copy_repo_tree(tmp_path)
        mutate(tmp_path / rel_path, needle, replacement)
        _config, result = analyze_repo(tmp_path)
        [finding] = [
            f for f in result.findings if f.severity is Severity.ERROR
        ]
        assert (finding.rule, finding.file) == (rule, rel_path)

    def test_roots_and_the_cache_salt_name_the_same_modules(self):
        # One list, two uses: what R101 keeps deterministic is what
        # cells.code_version() hashes into every cache key.
        from repro.experiments.cells import SIMULATED_MODULES

        def module_of(spec):
            parts = spec.split(".")
            while not (
                (REPO_ROOT / "src").joinpath(*parts).is_dir()
                or (REPO_ROOT / "src").joinpath(*parts)
                .with_suffix(".py").is_file()
            ):
                parts.pop()
            return ".".join(parts)

        config, _result = analyze_repo()
        assert len(set(SIMULATED_MODULES)) == len(SIMULATED_MODULES)
        assert {module_of(spec) for spec in config.roots} == set(
            SIMULATED_MODULES
        )

    def test_every_path_builder_is_in_the_reachable_set(self):
        # BuilderPaths("module:function") is resolved by import inside
        # execute_cell, so the function is simulated code whatever
        # module it lives in: each literal under src/repro must name a
        # function R101 reaches (i.e. a root in pyproject.toml).
        config, result = analyze_repo()
        roots, _missing = result.index.resolve_roots(config.roots)
        reachable = reachable_from(result.index, roots)
        builders = sorted(
            {
                match.replace(":", ".")
                for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
                for match in re.findall(
                    r'BuilderPaths\(\s*"([\w.]+:\w+)"', path.read_text()
                )
            }
        )
        assert "repro.experiments.fig11_feedback.fig11_paths" in builders
        assert [name for name in builders if name not in reachable] == []

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

    def test_removing_profiling_exclusion_surfaces_chain(self):
        _config, result = analyze_repo(exclude={})
        taint = [f for f in result.findings if f.rule == "R101"]
        assert taint, "expected profiling wall-clock reads to surface"
        assert all(
            f.file == "src/repro/simulation/profiling.py" for f in taint
        )
        assert all(f.chain for f in taint)


# ---------------------------------------------------------------------------
# CLI


def write_cli_project(tmp_path, files, roots):
    write_project(tmp_path, files)
    roots_toml = ", ".join(f'"{r}"' for r in roots)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-analyze]\n"
        'paths = ["pkg"]\n'
        f"roots = [{roots_toml}]\n"
    )


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_cli_project(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/mod.py": "def f():\n    return 1\n"},
            roots=["pkg.mod.f"],
        )
        code = main(["--config", str(tmp_path / "pyproject.toml")])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro analyze: clean" in out
        assert "module(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        files = dict(TAINT_FILES)
        files["pkg/clocky.py"] = files["pkg/clocky.py"].replace(
            "  # lint: ok(R101)", ""
        )
        write_cli_project(tmp_path, files, roots=["pkg.core.Sim.run"])
        code = main(["--config", str(tmp_path / "pyproject.toml")])
        out = capsys.readouterr().out
        assert code == 1
        assert "R101" in out
        assert "->" in out  # the rendered chain

    def test_missing_path_exits_two(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analyze]\npaths = ["nowhere"]\n'
        )
        code = main(["--config", str(tmp_path / "pyproject.toml")])
        assert code == 2

    def test_json_format(self, tmp_path, capsys):
        write_cli_project(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/mod.py": "def f():\n    return 1\n"},
            roots=["pkg.mod.f"],
        )
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

        write_cli_project(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/mod.py": "def f():\n    return 1\n"},
            roots=["pkg.mod.f"],
        )
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
