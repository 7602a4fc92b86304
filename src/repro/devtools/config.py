"""Configuration for ``repro analyze``, read from ``pyproject.toml``.

One table says what the analyzer looks at::

    [tool.repro-analyze]
    paths = ["src/repro"]            # files analyzed when no paths given
    slots-modules = ["src/repro/simulation/events.py"]   # R005 scope

    [tool.repro-analyze.exclude]
    # Per-rule glob patterns (matched against /-separated paths).
    R101 = ["src/repro/simulation/profiling.py"]

``pyproject.toml`` is the only statement of a repository's settings:
nothing here mirrors it, so without a pyproject (or with
``--no-config``) the analyzer runs with no excludes and no slots
modules.  What counts as simulated code (R101's scope) is not a
setting: it is :data:`repro.experiments.cells.SIMULATED_MODULES`, the
list that salts every cache key.  TOML parsing needs :mod:`tomllib`
(Python 3.11+) or ``tomli``; an interpreter with neither raises
:class:`ConfigError` rather than analyzing under a silently different
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - 3.9/3.10 fallback
    try:
        import tomli as _toml  # type: ignore[import-not-found,no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]


class ConfigError(Exception):
    """The configuration cannot be read (exit code 2)."""


@dataclass
class AnalyzeConfig:
    """Resolved ``[tool.repro-analyze]`` configuration."""

    paths: List[str] = field(default_factory=list)
    exclude: Dict[str, List[str]] = field(default_factory=dict)
    slots_modules: List[str] = field(default_factory=list)

    def rule_excluded(self, rule_id: str, rel_path: str) -> bool:
        """True when ``rel_path`` matches an exclude pattern for the rule."""
        return any(
            _path_match(rel_path, pattern)
            for pattern in self.exclude.get(rule_id, [])
        )

    def is_slots_module(self, rel_path: str) -> bool:
        return any(
            _path_match(rel_path, pattern) for pattern in self.slots_modules
        )


def _path_match(rel_path: str, pattern: str) -> bool:
    """Glob-match on /-separated paths; also accept suffix matches.

    ``src/repro/net/path.py`` matches both the full pattern and the
    bare ``net/path.py`` form, so configs stay readable and runs from
    any working directory agree.
    """
    path = rel_path.replace("\\", "/")
    return fnmatch(path, pattern) or fnmatch(path, f"*/{pattern}")


def _as_str_list(value: Any) -> List[str]:
    if isinstance(value, list):
        return [str(item) for item in value]
    if isinstance(value, str):
        return [value]
    return []


def analyze_config_from_dict(data: Dict[str, Any]) -> AnalyzeConfig:
    """Build an :class:`AnalyzeConfig` from ``[tool.repro-analyze]``."""
    config = AnalyzeConfig()
    if "paths" in data:
        config.paths = _as_str_list(data["paths"])
    if "slots-modules" in data:
        config.slots_modules = _as_str_list(data["slots-modules"])
    if isinstance(data.get("exclude"), dict):
        config.exclude = {
            str(rule): _as_str_list(patterns)
            for rule, patterns in data["exclude"].items()
        }
    return config


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_analyze_config(pyproject: Optional[Path]) -> AnalyzeConfig:
    """Load ``[tool.repro-analyze]``; empty config without a pyproject."""
    if pyproject is None or not pyproject.is_file():
        return AnalyzeConfig()
    if _toml is None:
        raise ConfigError(
            f"cannot read {pyproject}: this interpreter has no TOML parser "
            "(Python < 3.11 needs `pip install tomli`)"
        )
    with open(pyproject, "rb") as handle:
        section = _toml.load(handle).get("tool", {}).get("repro-analyze")
    if not isinstance(section, dict):
        return AnalyzeConfig()
    return analyze_config_from_dict(section)
