"""Grouping of emulated paths into the sender's multipath view."""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping

from repro.net.path import Path, PathConfig
from repro.simulation.simulator import Simulator


class PathSet:
    """The set of paths available to one conference direction.

    Experiments construct the paths (one per network: WiFi, T-Mobile,
    Verizon...) and hand the set to the sender; the receiver registers
    delivery callbacks per path.
    """

    def __init__(self, sim: Simulator, configs: Iterable[PathConfig]) -> None:
        self.sim = sim
        self._paths: Dict[int, Path] = {}
        # A live read-only view of the set, for per-packet lookups.
        self.by_id: Mapping[int, Path] = MappingProxyType(self._paths)
        for config in configs:
            if config.path_id in self._paths:
                raise ValueError(f"duplicate path id {config.path_id}")
            self._paths[config.path_id] = Path(sim, config)
        if not self._paths:
            raise ValueError("a path set needs at least one path")

    def add_path(self, config: PathConfig) -> Path:
        """Bring a new path up mid-call (WiFi join, LTE attach).

        The caller wires delivery callbacks and registers the path with
        the sender-side state; the set only guards id uniqueness.
        """
        if config.path_id in self._paths:
            raise ValueError(f"duplicate path id {config.path_id}")
        path = Path(self.sim, config)
        self._paths[config.path_id] = path
        return path

    def remove_path(self, path_id: int) -> Path:
        """Tear a path down mid-call and return the detached object.

        The last path cannot be removed: a call with zero paths is a
        dead call, and every consumer (RTCP routing, rate aggregation)
        assumes at least one path exists.
        """
        if path_id not in self._paths:
            raise KeyError(f"unknown path id {path_id}")
        if len(self._paths) == 1:
            raise ValueError("cannot remove the last path of a call")
        return self._paths.pop(path_id)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths.values())

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._paths

    def get(self, path_id: int) -> Path:
        return self._paths[path_id]

    @property
    def path_ids(self) -> List[int]:
        return list(self._paths.keys())

    def total_capacity_now(self) -> float:
        """Aggregate instantaneous capacity across all paths (bps)."""
        return sum(path.capacity_now() for path in self._paths.values())
