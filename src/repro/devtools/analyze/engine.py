"""The ``repro analyze`` engine and command line.

Usage::

    repro analyze [paths ...] [--format text|json]
    python -m repro.devtools.analyze

One pass over every ``.py`` file under the given paths (default: the
``paths`` key of ``[tool.repro-analyze]`` in the nearest
``pyproject.toml``): each file is parsed once and every rule
(:mod:`.rules`, R004-R007 and R101) runs on that tree.  R101's scope
is :data:`repro.experiments.cells.SIMULATED_MODULES`; an entry of it
that names nothing under the analyzed paths is an R100.

A finding on a line carrying ``# lint: ok(Rxxx)`` is waived and one in
a file matching the rule's ``exclude`` patterns is dropped.  Exit code
0 means no findings; 1 means at least one; 2 means the invocation
itself failed (unreadable path, a path holding no Python file, no TOML
parser).
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.devtools.analyze.model import (
    RULE_SUMMARIES,
    Finding,
    sort_findings,
)
from repro.devtools.analyze.output import render_json, render_text
from repro.devtools.analyze.rules import (
    in_scope,
    module_name_of,
    parse_waivers,
    run_rules,
)
from repro.devtools.config import (
    AnalyzeConfig,
    ConfigError,
    find_pyproject,
    load_analyze_config,
)
from repro.experiments import cells


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    elapsed_seconds: float = 0.0

    @property
    def summary_line(self) -> str:
        return (
            f"repro analyze: {self.modules} module(s) "
            f"in {self.elapsed_seconds:.2f}s"
        )

    def stats(self) -> Dict[str, object]:
        return {
            "modules": self.modules,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }


def _iter_python_files(root: Path) -> List[Path]:
    """``root`` itself, or every ``.py`` file under it outside
    ``__pycache__`` and hidden directories.  Hidden means hidden below
    ``root``: the root may sit in a dot-directory or be a ``..`` path."""
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*.py")
        if not any(
            part.startswith(".") or part == "__pycache__"
            for part in path.relative_to(root).parts
        )
    )


def _display_path(path: Path, base: Path) -> str:
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _scope_finding(entry: str, what: str, base: Path) -> Finding:
    """R100 at the line of ``cells.py`` that holds a stale entry."""
    path = Path(cells.__file__)
    lines = path.read_text(encoding="utf-8").splitlines()
    line = next(
        (n for n, text in enumerate(lines, 1) if f'"{entry}"' in text), 1
    )
    return Finding(
        file=_display_path(path, base),
        line=line,
        rule="R100",
        message=f"SIMULATED_MODULES entry '{entry}' names no {what} "
        "under the analyzed paths",
    )


def analyze_tree(
    paths: Sequence[str],
    config: Optional[AnalyzeConfig] = None,
    base: Optional[Path] = None,
    simulated: Sequence[str] = cells.SIMULATED_MODULES,
) -> AnalysisResult:
    """Run every rule over every ``.py`` file under ``paths``.

    ``simulated`` is R101's scope: packages and modules, scanned whole,
    and ``"module:function"`` entries, whose function body is scanned.
    """
    config = config if config is not None else AnalyzeConfig()
    base = base if base is not None else Path.cwd()
    result = AnalysisResult()
    started = time.perf_counter()

    findings: List[Finding] = []
    waivers: Dict[str, Dict[int, Set[str]]] = {}
    # Top-level defs per analyzed module, and the module (or package)
    # each path given stands for: what a scope entry may name.
    defined: Dict[str, Set[str]] = {}
    covered: List[str] = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such path: {raw}")
        files = _iter_python_files(root)
        if not files:
            raise FileNotFoundError(
                f"nothing to analyze: no .py file under {raw}"
            )
        covered.append(module_name_of(_display_path(root, base)))
        for file_path in files:
            rel = _display_path(file_path, base)
            source = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=rel)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        file=rel,
                        line=exc.lineno or 1,
                        rule="R100",
                        message=f"syntax error: {exc.msg}",
                    )
                )
                continue
            waivers[rel] = parse_waivers(source)
            defined[module_name_of(rel)] = {
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            findings.extend(
                run_rules(
                    tree, rel, config.is_slots_module(rel), simulated
                )
            )
    result.modules = len(waivers)

    # R100: the scope list, not the analyzed code, is off.
    for entry in simulated:
        module, _, function = entry.partition(":")
        if not any(in_scope(module, prefix) for prefix in covered if prefix):
            continue
        if function and function not in defined.get(module, ()):
            findings.append(_scope_finding(entry, "function", base))
        elif not function and not any(in_scope(m, module) for m in defined):
            findings.append(_scope_finding(entry, "module", base))

    # One suppression step for every rule: per-path excludes from the
    # config, then `# lint: ok(Rxxx)` waivers on the finding's line.
    result.findings = sort_findings(
        [
            f
            for f in findings
            if not config.rule_excluded(f.rule, f.file)
            and f.rule not in waivers.get(f.file, {}).get(f.line, ())
        ]
    )
    result.elapsed_seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Command line


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the analyze flags (shared with the ``repro`` CLI)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze (default: "
        "[tool.repro-analyze] paths from pyproject.toml)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--config", metavar="PYPROJECT", default=None,
        help="explicit pyproject.toml (default: nearest ancestor)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml: no excludes or slots modules",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def run_analyze(args: argparse.Namespace) -> int:
    """Execute a parsed analyze invocation; returns the exit code."""
    if args.list_rules:
        for rule_id, summary in sorted(RULE_SUMMARIES.items()):
            print(f"{rule_id}  {summary}")
        return 0
    try:
        if args.no_config:
            config = AnalyzeConfig()
            base = Path.cwd()
        else:
            pyproject = (
                Path(args.config)
                if args.config
                else find_pyproject(Path.cwd())
            )
            config = load_analyze_config(pyproject)
            base = pyproject.parent if pyproject is not None else Path.cwd()
        paths = list(args.paths) or [
            str(base / p) if not Path(p).is_absolute() else p
            for p in config.paths
        ]
        if not paths:
            raise ConfigError(
                "nothing to analyze: pass PATHs or set "
                "[tool.repro-analyze] paths in pyproject.toml"
            )
        result = analyze_tree(paths, config, base=base)
    except (ConfigError, OSError) as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result.findings, result.stats()))
    else:
        print(render_text(result.findings, result.summary_line))
    return 1 if result.findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "determinism static analysis "
            "(rules R004-R007, R100, R101)"
        ),
    )
    add_analyze_arguments(parser)
    return run_analyze(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
