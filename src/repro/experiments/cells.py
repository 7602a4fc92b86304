"""Experiment cells: the unit of work of the parallel runner.

A :class:`Cell` is one fully-resolved ``(paths, system, seed,
duration, faults, overrides)`` job.  Every paper figure expands into a
list of cells; the runner executes them across worker processes and
memoizes each one in a content-addressed cache.  Two requirements
shape this module:

1. *Determinism*: executing a cell must depend only on the cell itself
   — paths are rebuilt inside the worker from a declarative
   :data:`PathSpec` with a fresh ``RandomStreams(seed)``, so a cell
   computes byte-identical results whether it runs serially, in a
   worker process, or on another machine.  (Sharing built
   ``PathConfig`` objects across calls would leak loss-model state
   between cells.)
2. *Stable identity*: the cache key is a SHA-256 over the canonical
   JSON encoding of the resolved cell plus :func:`code_version`, a
   digest of the simulated source, so a cell's key survives process
   restarts and dict-ordering accidents, and any edit to code a
   payload can depend on invalidates every cached result at once.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import importlib.resources
import json
import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.core.config import SystemKind
from repro.net.path import PathConfig

if TYPE_CHECKING:
    from importlib.abc import Traversable

# Simulated code, named once: everything that runs between
# execute_cell's entry and its payload.  Two uses, one list:
# code_version() hashes these files into every cache key, and
# `repro analyze` rule R101 scans them for clocks, global RNGs, the
# environment and OS entropy, and holds the list closed under import.
# A package or module entry is scanned whole; a "module:function" entry
# (the BuilderPaths syntax) scans that function's body, while the cache
# key still hashes its whole file.  A BuilderPaths function runs inside
# execute_cell, so it is listed here wherever it lives.
SIMULATED_MODULES = (
    "repro.simulation",
    "repro.net",
    "repro.rtp",
    "repro.video",
    "repro.cc",
    "repro.fec",
    "repro.scheduling",
    "repro.core",
    "repro.receiver",
    "repro.metrics",
    "repro.faults",
    "repro.traces",
    "repro.flow",
    "repro.analysis",
    "repro.experiments.common",
    "repro.experiments.cells",
    "repro.experiments.runner:execute_cell",
    "repro.experiments.fig11_feedback:fig11_paths",
    "repro.experiments.sweeps:loss_model_paths",
)


def _sources(node: Traversable, path: str) -> Iterator[Tuple[str, bytes]]:
    """``(relative path, text)`` of every ``.py`` file at or under ``node``,
    sorted, line ends normalised so a checkout style moves no key."""
    if node.is_dir():
        for child in sorted(node.iterdir(), key=lambda entry: entry.name):
            if child.is_dir() or child.name.endswith(".py"):
                yield from _sources(child, f"{path}/{child.name}")
    else:
        yield path, node.read_bytes().replace(b"\r\n", b"\n")


@functools.cache
def code_version() -> str:
    """SHA-256 over the source files of :data:`SIMULATED_MODULES` (a
    function entry's whole file), the salt of every cache key: an edit
    to simulated code moves every key, an edit to the harness around it
    (CLI, figures, fleet, cache, devtools) moves none.  Read on first
    use, then memoised; a source that cannot be read is an error — no
    fallback could be told from a stale hit.
    """
    root = importlib.resources.files("repro")
    digest = hashlib.sha256()
    for entry in SIMULATED_MODULES:
        module = entry.partition(":")[0]
        path = module.partition(".")[2].replace(".", "/")
        if not root.joinpath(path).is_dir():
            path += ".py"
        files = list(_sources(root.joinpath(path), path))
        if not files:
            raise FileNotFoundError(f"no source files for {module}")
        for name, text in files:
            digest.update(f"{name}\0{len(text)}\0".encode() + text)
    return digest.hexdigest()


class Fidelity(enum.Enum):
    """Which simulation backend executes a cell.

    ``PACKET`` is the discrete-event core (exact, ~40 sim-s/wall-s);
    ``FLOW`` is the frame-interval abstraction in :mod:`repro.flow`
    (cross-validated against the packet goldens, orders of magnitude
    faster).  The fidelity is part of the cell's identity and its
    cache key, so cached summaries never mix backends.
    """

    PACKET = "packet"
    FLOW = "flow"


# ---------------------------------------------------------------------------
# Path specifications


@dataclass(frozen=True)
class ScenarioPaths:
    """Appendix-D scenario paths (``repro.traces.scenarios``)."""

    scenario: str
    networks: Optional[Tuple[str, ...]] = None

    def build(self, duration: float, seed: int) -> List[PathConfig]:
        from repro.experiments.common import scenario_paths

        return scenario_paths(
            self.scenario, duration, seed, networks=self.networks
        )


@dataclass(frozen=True)
class ConstantPaths:
    """Fixed-capacity paths (the §6.2 controlled environments)."""

    capacities_bps: Tuple[float, ...]
    propagation_delays: Tuple[float, ...]
    loss_rates: Tuple[float, ...]
    names: Optional[Tuple[str, ...]] = None

    def build(self, duration: float, seed: int) -> List[PathConfig]:
        from repro.experiments.common import constant_paths

        return constant_paths(
            list(self.capacities_bps),
            list(self.propagation_delays),
            list(self.loss_rates),
            names=list(self.names) if self.names else None,
        )


@dataclass(frozen=True)
class BuilderPaths:
    """Paths produced by a named builder function.

    ``builder`` is a ``"module.path:function"`` reference resolved by
    import inside the worker, so arbitrary experiment topologies (the
    Fig. 11 fade, the loss-model sweeps) stay declarative, picklable
    and hashable.  The builder is called as ``fn(duration=..., **kwargs)``
    and must be deterministic in its arguments.
    """

    builder: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def build(self, duration: float, seed: int) -> List[PathConfig]:
        module_name, _, attr = self.builder.partition(":")
        if not attr:
            raise ValueError(
                f"builder must look like 'pkg.module:function': {self.builder!r}"
            )
        fn = getattr(importlib.import_module(module_name), attr)
        return fn(duration=duration, **dict(self.kwargs))


PathSpec = Union[ScenarioPaths, ConstantPaths, BuilderPaths]


# ---------------------------------------------------------------------------
# The cell itself


@dataclass(frozen=True)
class Cell:
    """One fully-resolved simulation job.

    ``overrides`` holds extra :func:`repro.core.api.build_call_config`
    keyword arguments (FEC mode, receiver config, ablation switches…).
    Values must be canonicalizable (primitives, enums, dataclasses,
    tuples); they are part of the cell's identity.
    """

    paths: PathSpec
    system: SystemKind = SystemKind.CONVERGE
    seed: int = 1
    duration: float = 30.0
    num_streams: int = 1
    single_path_id: int = 0
    label: Optional[str] = None
    # Name of a canned chaos plan (repro.faults.scenarios), or None.
    chaos: Optional[str] = None
    # Which simulation backend runs this cell (salted into the key).
    fidelity: Fidelity = Fidelity.PACKET
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("cell duration must be positive")
        if self.num_streams < 1:
            raise ValueError("cell needs at least one stream")
        if isinstance(self.fidelity, str):
            object.__setattr__(self, "fidelity", Fidelity(self.fidelity))
        if isinstance(self.overrides, dict):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )

    @property
    def effective_label(self) -> str:
        return self.label or self.system.value

    def override_kwargs(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def resolved(self) -> Dict[str, Any]:
        """The cell as canonical, JSON-able data (its identity).

        Memoized per instance (the cell is frozen, so its identity
        never changes): sweeps probe the cache, plan batches and store
        results against the same cells, and profiling showed the
        canonicalization re-running on every probe.  Treat the
        returned dict as immutable — copy before editing.
        """
        cached = self.__dict__.get("_resolved_memo")
        if cached is not None:
            return cached  # type: ignore[no-any-return]
        resolved = self._compute_resolved()
        object.__setattr__(self, "_resolved_memo", resolved)
        return resolved

    def _compute_resolved(self) -> Dict[str, Any]:
        return {
            "paths": canonicalize(self.paths),
            "system": self.system.value,
            "seed": self.seed,
            "duration": self.duration,
            "num_streams": self.num_streams,
            "single_path_id": self.single_path_id,
            "label": self.label,
            "chaos": self.chaos,
            "fidelity": self.fidelity.value,
            "overrides": canonicalize(dict(self.overrides)),
        }

    def key(self) -> str:
        """Content-addressed cache key for this cell."""
        return cell_key(self)


def make_cell(
    paths: PathSpec,
    system: SystemKind,
    *,
    seed: int = 1,
    duration: float = 30.0,
    num_streams: int = 1,
    single_path_id: int = 0,
    label: Optional[str] = None,
    chaos: Optional[str] = None,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    **overrides: Any,
) -> Cell:
    """Convenience constructor: keyword overrides become the tuple form."""
    return Cell(
        paths=paths,
        system=system,
        seed=seed,
        duration=duration,
        num_streams=num_streams,
        single_path_id=single_path_id,
        label=label,
        chaos=chaos,
        fidelity=Fidelity(fidelity),
        overrides=tuple(sorted(overrides.items())),
    )


# ---------------------------------------------------------------------------
# Canonical encoding and hashing


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-able data.

    Handles primitives, enums (by value), dataclasses (tagged with
    their qualified class name so two config types with equal fields
    do not collide), and sequences/mappings recursively.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": _qualname(type(value)), "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": _qualname(type(value)), "fields": fields}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): canonicalize(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    # Plain objects (e.g. loss models) hash by class + public attrs.
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        public = {
            name: canonicalize(item)
            for name, item in sorted(attrs.items())
            if not name.startswith("_")
        }
        return {"__object__": _qualname(type(value)), "attrs": public}
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators, repr floats.

    Floats round-trip exactly through this encoding (json uses
    ``repr``), which is what makes cached summaries byte-identical to
    freshly computed ones.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cell_key(cell: Cell) -> str:
    """SHA-256 of the resolved cell plus :func:`code_version`.

    Memoized per Cell instance (keyed by the salt, which can change
    between sweeps via ``REPRO_CACHE_SALT``): the runner probes the
    cache, dedups and stores results against the same frozen cells, so
    the key is computed once per cell per run.  The memo returns the
    *same* string object on a hit — tests pin that identity.
    """
    # The key names the cache entry, never the payload: the one
    # deliberate environment read inside the analyzed scope.
    salt = os.environ.get("REPRO_CACHE_SALT", "")  # lint: ok(R101)
    cached = cell.__dict__.get("_key_memo")
    if cached is not None and cached[0] == salt:
        return cached[1]  # type: ignore[no-any-return]
    payload = canonical_json(
        {
            "cell": canonicalize(cell.resolved()),
            "code_version": code_version(),
            "salt": salt,
        }
    )
    key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    object.__setattr__(cell, "_key_memo", (salt, key))
    return key


def expand_grid(
    path_specs: Sequence[PathSpec],
    systems: Sequence[SystemKind],
    seeds: Sequence[int],
    *,
    duration: float,
    num_streams: int = 1,
    chaos: Optional[str] = None,
    fidelity: Union[Fidelity, str] = Fidelity.PACKET,
    **overrides: Any,
) -> List[Cell]:
    """The common sweep shape: the cross product of paths × systems × seeds.

    Expansion order is deterministic (paths outermost, seeds innermost)
    so progress output and result ordering are stable run to run.
    """
    cells: List[Cell] = []
    for spec in path_specs:
        for system in systems:
            for seed in seeds:
                cells.append(
                    make_cell(
                        spec,
                        system,
                        seed=seed,
                        duration=duration,
                        num_streams=num_streams,
                        chaos=chaos,
                        fidelity=fidelity,
                        **overrides,
                    )
                )
    return cells
