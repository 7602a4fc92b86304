"""Tests for the local rules and source detector of ``repro analyze``.

Every local rule (R004-R007) gets at least one positive fixture (a
crafted snippet it must fire on) and one negative fixture (the
corrected snippet it must stay silent on); the wall-clock and
global-RNG snippets are the inputs of the source detector, reported
as R101 because the snippet's package is in the scanned scope.
Waiver, pyproject-config and CLI behaviour close the file; R101's
scope (the import closure, R100 on a stale entry) and the real tree
live in ``tests/test_devtools_analyze.py``.
"""

import json
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.devtools import config as config_module
from repro.devtools.analyze.engine import analyze_tree, main
from repro.devtools.analyze.model import Finding, Severity
from repro.devtools.analyze.rules import parse_waivers
from repro.devtools.config import (
    AnalyzeConfig,
    analyze_config_from_dict,
    load_analyze_config,
)

# Snippets live at src/repro/example.py, i.e. in module
# ``repro.example``: scoping the package puts them in R101's scan.
SNIPPET_SCOPE = ("repro",)


def lint(source, rel_path="src/repro/example.py", config=None):
    config = config if config is not None else AnalyzeConfig()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / rel_path
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(source))
        return analyze_tree(
            [str(path)], config, base=Path(tmp), simulated=SNIPPET_SCOPE
        ).findings


def rules_fired(source, **kwargs):
    return sorted({d.rule for d in lint(source, **kwargs)})


# ---------------------------------------------------------------------------
# Source detector — wall clock (reported as R101)


class TestWallClock:
    def test_time_time_fires(self):
        assert rules_fired(
            """
            import time
            def stamp():
                return time.time()
            """
        ) == ["R101"]

    def test_perf_counter_from_import_fires(self):
        assert rules_fired(
            """
            from time import perf_counter
            def stamp():
                return perf_counter()
            """
        ) == ["R101"]

    def test_aliased_module_fires(self):
        assert rules_fired(
            """
            import time as clock
            x = clock.monotonic()
            """
        ) == ["R101"]

    def test_datetime_now_fires(self):
        assert rules_fired(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        ) == ["R101"]

    def test_clock_gettime_fires(self):
        for call in ("clock_gettime", "clock_gettime_ns"):
            assert rules_fired(
                f"""
                import time
                t = time.{call}(time.CLOCK_REALTIME)
                """
            ) == ["R101"], call

    def test_a_bare_time_conversion_reads_the_clock(self):
        # localtime() and friends convert the time they are given; with
        # none (or None) they convert now.
        for call in (
            "localtime()", "gmtime()", "ctime()", "asctime()",
            "localtime(None)",
        ):
            assert rules_fired(
                f"""
                import time
                stamp = time.{call}
                """
            ) == ["R101"], call

    def test_a_time_conversion_of_a_given_time_is_clean(self):
        assert rules_fired(
            """
            import time
            def label(t, parts):
                return time.localtime(t), time.gmtime(t), time.ctime(t), \\
                    time.asctime(parts)
            """
        ) == []

    def test_simulator_now_is_clean(self):
        assert rules_fired(
            """
            def stamp(sim):
                return sim.now
            """
        ) == []

    def test_time_sleep_is_clean(self):
        # Only clock *reads* are flagged, not the rest of the module.
        assert rules_fired(
            """
            import time
            time.sleep(0.1)
            """
        ) == []

    def test_excluded_module_is_clean(self):
        config = analyze_config_from_dict(
            {"exclude": {"R101": ["src/repro/simulation/profiling.py"]}}
        )
        source = """
        import time
        t = time.time()
        """
        assert (
            lint(
                source,
                rel_path="src/repro/simulation/profiling.py",
                config=config,
            )
            == []
        )
        assert rules_fired(source, config=config) == ["R101"]


# ---------------------------------------------------------------------------
# Source detector — module-global randomness (reported as R101)


class TestGlobalRandom:
    def test_module_global_draw_fires(self):
        assert rules_fired(
            """
            import random
            x = random.random()
            """
        ) == ["R101"]

    def test_from_import_draw_fires(self):
        assert rules_fired(
            """
            from random import randint
            x = randint(0, 10)
            """
        ) == ["R101"]

    def test_seeding_global_fires(self):
        assert rules_fired(
            """
            import random
            random.seed(42)
            """
        ) == ["R101"]

    def test_numpy_global_draw_fires(self):
        assert rules_fired(
            """
            import numpy as np
            x = np.random.rand(3)
            """
        ) == ["R101"]

    def test_seeded_instance_is_clean(self):
        assert rules_fired(
            """
            import random
            def build(seed: int) -> random.Random:
                rng = random.Random(seed)
                return rng.random()
            """
        ) == []

    def test_system_random_is_os_entropy(self):
        # random.SystemRandom seeds itself from the OS: constructing
        # it is the source, whichever way it was imported.
        for snippet in (
            """
            import random
            r = random.SystemRandom()
            x = r.random()
            """,
            """
            from random import SystemRandom
            x = SystemRandom().random()
            """,
        ):
            [finding] = lint(snippet)
            assert finding.rule == "R101"
            assert "OS entropy read `random.SystemRandom`" in finding.message

    def test_unseeded_random_instance_is_os_entropy(self):
        # random.Random() with no seed (or None) seeds itself from OS
        # entropy, like SystemRandom.
        for snippet in (
            "import random\nr = random.Random()\n",
            "from random import Random\nr = Random(None)\n",
        ):
            [finding] = lint(snippet)
            assert finding.rule == "R101"
            assert "OS entropy read `random.Random`" in finding.message

    def test_unseeded_numpy_generators_are_os_entropy(self):
        for call in (
            "default_rng()", "SeedSequence()", "PCG64()",
            "default_rng(seed=None)",
        ):
            [finding] = lint(f"import numpy as np\nx = np.random.{call}\n")
            assert finding.rule == "R101", call
            assert "OS entropy read `numpy.random." in finding.message

    def test_seeded_numpy_generators_are_clean(self):
        assert rules_fired(
            """
            import numpy as np
            def build(seed):
                return np.random.Generator(np.random.PCG64(seed)), \\
                    np.random.default_rng(seed), np.random.SeedSequence(seed)
            """
        ) == []

    def test_numpy_default_rng_is_clean(self):
        assert rules_fired(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.normal()
            """
        ) == []

    def test_numpy_legacy_generators_and_bare_draw_fire(self):
        # Nothing in src/ replays random.Random through numpy's legacy
        # MT19937 classes any more (bulk reads go through randbytes),
        # so they are no longer exempt.
        for call in (
            "np.random.RandomState(np.array([1, 2], dtype=np.uint32))",
            "np.random.MT19937(0)",
            "np.random.random()",
        ):
            assert rules_fired(
                f"""
                import numpy as np
                x = {call}
                """
            ) == ["R101"], call

    def test_annotation_only_use_is_clean(self):
        # net/loss.py-style: `random` imported purely for type hints.
        assert rules_fired(
            """
            import random
            def draw(rng: random.Random) -> float:
                return rng.random()
            """
        ) == []


# ---------------------------------------------------------------------------
# R004 — float equality on times/rates


class TestFloatEquality:
    def test_time_equality_fires(self):
        assert rules_fired(
            """
            if arrival_time == departure_time:
                pass
            """
        ) == ["R004"]

    def test_rate_float_literal_fires(self):
        assert rules_fired(
            """
            if target_rate != 2.5:
                pass
            """
        ) == ["R004"]

    def test_int_sentinel_is_clean(self):
        assert rules_fired(
            """
            if frame_time == 0:
                pass
            """
        ) == []

    def test_none_check_is_clean(self):
        assert rules_fired(
            """
            if send_time == None:
                pass
            """
        ) == []

    def test_ordering_comparison_is_clean(self):
        assert rules_fired(
            """
            if now >= deadline:
                pass
            """
        ) == []

    def test_non_temporal_equality_is_clean(self):
        assert rules_fired(
            """
            if name == other_name:
                pass
            """
        ) == []


# ---------------------------------------------------------------------------
# R005 — __slots__ in hot-path modules


HOT_CONFIG = analyze_config_from_dict(
    {"slots-modules": ["src/repro/hot.py"]}
)


class TestSlots:
    def test_plain_class_fires(self):
        assert rules_fired(
            """
            class Packet:
                def __init__(self):
                    self.seq = 0
            """,
            rel_path="src/repro/hot.py",
            config=HOT_CONFIG,
        ) == ["R005"]

    def test_slotted_class_is_clean(self):
        assert rules_fired(
            """
            class Packet:
                __slots__ = ("seq",)
                def __init__(self):
                    self.seq = 0
            """,
            rel_path="src/repro/hot.py",
            config=HOT_CONFIG,
        ) == []

    def test_dataclass_slots_true_is_clean(self):
        assert rules_fired(
            """
            from dataclasses import dataclass
            @dataclass(slots=True)
            class Packet:
                seq: int = 0
            """,
            rel_path="src/repro/hot.py",
            config=HOT_CONFIG,
        ) == []

    def test_plain_dataclass_fires(self):
        assert rules_fired(
            """
            from dataclasses import dataclass
            @dataclass
            class Packet:
                seq: int = 0
            """,
            rel_path="src/repro/hot.py",
            config=HOT_CONFIG,
        ) == ["R005"]

    def test_enum_and_exception_exempt(self):
        assert rules_fired(
            """
            from enum import Enum
            class Kind(Enum):
                A = 1
            class BufferError(Exception):
                pass
            """,
            rel_path="src/repro/hot.py",
            config=HOT_CONFIG,
        ) == []

    def test_non_hot_module_is_clean(self):
        assert rules_fired(
            """
            class Anything:
                pass
            """,
            rel_path="src/repro/cold.py",
            config=HOT_CONFIG,
        ) == []


# ---------------------------------------------------------------------------
# R006 — closures into pools and the event queue


class TestClosureCapture:
    def test_lambda_to_submit_fires(self):
        assert rules_fired(
            """
            def sweep(pool, cell):
                return pool.submit(lambda: cell.run())
            """
        ) == ["R006"]

    def test_nested_function_to_submit_fires(self):
        assert rules_fired(
            """
            def sweep(pool, cell):
                def work():
                    return cell.run()
                return pool.submit(work)
            """
        ) == ["R006"]

    def test_module_level_function_is_clean(self):
        assert rules_fired(
            """
            def work(cell):
                return cell.run()
            def sweep(pool, cell):
                return pool.submit(work, cell)
            """
        ) == []

    def test_lambda_into_schedule_fires(self):
        assert rules_fired(
            """
            def arm(sim, event):
                sim.schedule_at(event.start, lambda: apply(event))
            """
        ) == ["R006"]

    def test_lambda_into_post_fires(self):
        # The fire-and-forget hop the per-packet paths use.
        assert rules_fired(
            """
            def deliver(self, sim, delay, packet):
                sim.post(delay, lambda: self._deliver(packet))
            """
        ) == ["R006"]

    def test_event_arg_form_is_clean(self):
        assert rules_fired(
            """
            def arm(sim, event):
                sim.schedule_at(event.start, apply, event)
                sim.post(0.0, apply, event)
            """
        ) == []

    # Forks fine on Linux, dies at pickle time under `spawn`.

    def test_lambda_as_process_target_fires(self):
        assert rules_fired(
            """
            def start(context, conn):
                context.Process(target=lambda: loop(conn)).start()
            """
        ) == ["R006"]

    def test_nested_function_as_process_target_fires(self):
        assert rules_fired(
            """
            def start(conn):
                def serve():
                    loop(conn)
                Process(target=serve, daemon=True).start()
            """
        ) == ["R006"]

    def test_module_level_process_target_is_clean(self):
        assert rules_fired(
            """
            def loop(conn):
                pass
            def start(context, conn):
                context.Process(target=loop, args=(conn,)).start()
            """
        ) == []

    def test_unrelated_lambda_is_clean(self):
        assert rules_fired(
            "order = sorted(items, key=lambda item: item.start)\n"
        ) == []

    # functools.partial must not launder a closure past the rule
    # (regression).

    def test_partial_wrapping_lambda_to_submit_fires(self):
        assert rules_fired(
            """
            from functools import partial
            def sweep(pool, cell):
                return pool.submit(partial(lambda: cell.run()))
            """
        ) == ["R006"]

    def test_partial_wrapping_nested_function_to_submit_fires(self):
        assert rules_fired(
            """
            import functools
            def sweep(pool, cell):
                def work(seed):
                    return cell.run(seed)
                return pool.submit(functools.partial(work, 7))
            """
        ) == ["R006"]

    def test_partial_wrapping_lambda_into_schedule_fires(self):
        assert rules_fired(
            """
            from functools import partial
            def arm(sim, event):
                sim.schedule_at(event.start, partial(lambda: apply(event)))
            """
        ) == ["R006"]

    def test_partial_wrapping_nested_function_into_event_fires(self):
        assert rules_fired(
            """
            from functools import partial
            def arm(sim, event):
                def fire():
                    apply(event)
                sim.schedule(Event(event.start, partial(fire)))
            """
        ) == ["R006"]

    def test_partial_of_module_level_function_is_clean(self):
        assert rules_fired(
            """
            from functools import partial
            def work(cell, seed):
                return cell.run(seed)
            def sweep(pool, cell):
                return pool.submit(partial(work, cell, 7))
            """
        ) == []


# ---------------------------------------------------------------------------
# R007 — mutable default arguments


class TestMutableDefault:
    def test_list_literal_fires(self):
        assert rules_fired("def add(item, acc=[]):\n    acc.append(item)\n") \
            == ["R007"]

    def test_dict_call_fires(self):
        assert rules_fired("def add(item, acc=dict()):\n    pass\n") \
            == ["R007"]

    def test_none_default_is_clean(self):
        assert rules_fired(
            """
            def add(item, acc=None):
                acc = [] if acc is None else acc
            """
        ) == []

    def test_immutable_defaults_are_clean(self):
        assert rules_fired(
            "def window(size=8, name='x', bounds=(0, 1)):\n    pass\n"
        ) == []


# ---------------------------------------------------------------------------
# Waivers, config, engine plumbing


class TestWaivers:
    def test_waiver_suppresses_on_its_line(self):
        source = """
        import time
        t = time.time()  # lint: ok(R101) wall-clock stat by design
        """
        assert lint(source) == []

    def test_waiver_is_rule_specific(self):
        source = """
        import time
        t = time.time()  # lint: ok(R007)
        """
        assert rules_fired(source) == ["R101"]

    def test_waiver_with_multiple_rules(self):
        waivers = parse_waivers("x = 1  # lint: ok(R101, R004)\n")
        assert waivers == {1: {"R101", "R004"}}

    def test_waiver_only_covers_its_line(self):
        source = """
        import time
        a = time.time()  # lint: ok(R101)
        b = time.time()
        """
        diagnostics = lint(source)
        assert [d.rule for d in diagnostics] == ["R101"]
        assert diagnostics[0].line == 4


class TestConfig:
    def test_repo_pyproject_parses(self):
        # The real pyproject table must load and carry the paths, the
        # profiling exclude and the hot-path modules; R101's scope is
        # not a setting.
        config = load_analyze_config(
            Path(__file__).parent.parent / "pyproject.toml"
        )
        assert config.paths == ["src/repro"]
        assert any("profiling" in p for p in config.exclude["R101"])
        assert any("events" in p for p in config.slots_modules)

    def test_default_config_used_without_pyproject(self):
        # ...and the default is empty: nothing in the tool mirrors
        # this repository's settings.
        assert load_analyze_config(None) == AnalyzeConfig()
        assert AnalyzeConfig().exclude == {}
        assert AnalyzeConfig().slots_modules == []

    def test_missing_toml_parser_is_exit_two(
        self, tmp_path, monkeypatch, capsys
    ):
        # An interpreter with neither tomllib nor tomli must say so,
        # not analyze under a silently different configuration.
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analyze]\npaths = ["."]\n'
        )
        monkeypatch.setattr(config_module, "_toml", None)
        assert main(["--config", str(tmp_path / "pyproject.toml")]) == 2
        assert "no TOML parser" in capsys.readouterr().err


class TestEngine:
    def test_syntax_error_becomes_r100(self):
        diagnostics = lint("def broken(:\n", config=AnalyzeConfig())
        assert [d.rule for d in diagnostics] == ["R100"]
        assert diagnostics[0].severity is Severity.ERROR

    def test_diagnostic_format_and_dict(self):
        diagnostic = Finding("a.py", 3, "R101", "boom")
        assert diagnostic.format() == "a.py:3: R101 [error] boom"
        assert diagnostic.to_dict()["severity"] == "error"

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "bad.py").write_text("import time\nt = time.time()\n")
        (package / "good.py").write_text("x = 1\n")
        diagnostics = analyze_tree(
            [str(package)], AnalyzeConfig(), base=tmp_path, simulated=["pkg"]
        ).findings
        assert [(d.file, d.rule) for d in diagnostics] == [
            ("pkg/bad.py", "R101")
        ]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            analyze_tree(["no/such/dir"])


class TestMain:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # --no-config: cwd holds the baseline
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--no-config"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_nonzero_with_rule_id(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text("def add(item, acc=[]):\n    pass\n")
        assert main([str(tmp_path), "--no-config"]) == 1
        assert "R007" in capsys.readouterr().out

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text("def add(item, acc=[]):\n    pass\n")
        assert main([str(tmp_path), "--no-config", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "R007"

    def test_nothing_to_analyze_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--no-config"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

    def test_a_path_without_python_files_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        assert main(["empty", "--no-config"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["absolute", "dotdot", "config"])
    def test_a_root_under_a_dot_directory_is_analyzed(
        self, tmp_path, monkeypatch, capsys, how
    ):
        # Hidden means hidden below the analyzed root: a checkout under
        # a dot-directory, or a `..` path, is analyzed like any other.
        checkout = tmp_path / ".ci"
        package = checkout / "pkg"
        (package / ".hidden").mkdir(parents=True)
        (package / "bad.py").write_text("def add(item, acc=[]):\n    pass\n")
        (package / ".hidden" / "skipped.py").write_text("x = 1\n")
        (checkout / "work").mkdir()
        monkeypatch.chdir(checkout / "work")
        (checkout / "pyproject.toml").write_text(
            '[tool.repro-analyze]\npaths = ["pkg"]\n'
        )
        argv = {
            "absolute": [str(package), "--no-config"],
            "dotdot": ["../pkg", "--no-config"],
            "config": ["--config", str(checkout / "pyproject.toml")],
        }[how]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "R007" in out
        assert "repro analyze: 1 module(s)" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "R004", "R005", "R006", "R007", "R100", "R101"
        ]

    def test_repo_tree_is_clean(self):
        # The analyzer gates CI on its own repository: src/repro (which
        # includes repro.devtools itself) must come out clean, local
        # rules included.
        repo = Path(__file__).parent.parent
        config = load_analyze_config(repo / "pyproject.toml")
        result = analyze_tree(
            [str(repo / "src" / "repro")], config, base=repo
        )
        assert result.findings == []
