"""Content-addressed on-disk cache of cell results.

Layout: ``<root>/<key>.json``, one file per cell and no subdirectory
(creating a directory costs as much as writing an entry, see DESIGN.md
section 11), holding the resolved cell, the summary payload
and bookkeeping metadata.  An entry is the canonical JSON text
:meth:`ResultCache.put` writes, so a cache hit returns bytes identical
to what a fresh run would produce (JSON round-trips Python floats
exactly).

The summary is encoded once (``put``) and decoded once (a hit): an
entry carries a SHA-256 checksum of its summary bytes, and validation
hashes those stored bytes where they lie in the file — it never
re-encodes a decoded summary.  A file that is not in ``put``'s layout,
or whose stored summary does not hash to its checksum (disk faults,
partial copies, editor accidents — re-indenting counts), is corrupt:
deleted and read as a plain miss in one's own cache, skipped in a
shard/merge source, never served as data and never crashing a sweep.

Writes are atomic (temp file + rename) so a crashed or parallel
writer can never leave a torn entry; concurrent writers of the same
key both write the same content, so the race is benign.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.experiments.cells import canonical_json, code_version


def default_cache_dir() -> Path:
    """``REPRO_CACHE`` env override, else ``~/.cache/repro-converge``."""
    env = os.environ.get("REPRO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-converge"


@dataclass
class CacheEntry:
    """One cached cell summary plus its provenance."""

    key: str
    cell: Dict[str, Any]
    summary: Dict[str, Any]
    code_version: str
    created: float
    wall_seconds: float

    @property
    def label(self) -> str:
        return self.cell.get("label") or self.cell.get("system", "?")


class ResultCache:
    """A content-addressed store of cell summaries."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- lookup / store -----------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[CacheEntry]:
        """Return the entry for ``key`` or ``None``.

        A file that fails integrity validation — torn JSON, a foreign
        key, a layout other than :meth:`put`'s, a missing or
        mismatching summary checksum — is deleted on the spot and
        reported as a miss, so one corrupt entry costs a re-simulation
        instead of poisoning every later sweep.
        """
        target = self.path_for(key)
        try:
            raw = target.read_bytes()
        except OSError:
            return None
        data = self._validated(key, raw)
        if data is None:
            self._discard(target)
            return None
        return CacheEntry(
            key=key,
            cell=data.get("cell", {}),
            summary=data["summary"],
            code_version=data.get("code_version", ""),
            created=data.get("created", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
        )

    @staticmethod
    def _validated(key: str, raw: bytes) -> Optional[Dict[str, Any]]:
        """Check one entry against :meth:`put`'s layout; None is corrupt.

        The summary is the slice between ``"key":"<key>","summary":``
        and the last ``,"wall_seconds":``.  Quotes inside JSON strings
        are escaped, so both can only match as members: the first
        before any summary text (no cell holds its own hash), the last
        after all of it.  The stored bytes are hashed as they are and
        decoded once; only the small remainder is parsed separately.
        """
        member = b'"key":"%s"' % key.encode()
        start = raw.find(member + b',"summary":')
        end = raw.rfind(b',"wall_seconds":')
        if start < 0 or end < start:
            return None
        cut = start + len(member)
        body = raw[cut + len(b',"summary":'):end]
        try:
            data: Dict[str, Any] = json.loads(raw[:cut] + raw[end:])
            intact = (
                data["key"] == key
                and data["checksum"] == hashlib.sha256(body).hexdigest()
            )
            data["summary"] = json.loads(body) if intact else None
        except (ValueError, KeyError, TypeError):
            return None
        return data if isinstance(data["summary"], dict) else None

    @staticmethod
    def _discard(target: Path) -> None:
        try:
            target.unlink()
        except OSError:
            pass

    def put(
        self,
        key: str,
        cell: Dict[str, Any],
        summary: Dict[str, Any],
        wall_seconds: float,
    ) -> Path:
        """Store ``summary`` under ``key`` atomically; returns the path."""
        # The summary is most of an entry: encode it once, checksum
        # those bytes, and splice them between the keys that sort
        # around "summary" — the text equals canonical_json of the
        # whole entry (tests/test_runner.py pins that).
        body = canonical_json(summary).encode()
        head = canonical_json(
            {
                "cell": cell,
                "checksum": hashlib.sha256(body).hexdigest(),
                "code_version": code_version(),
                # Cache metadata wants real wall-clock age, not sim time.
                "created": time.time(),
                "key": key,
            }
        ).encode()
        tail = canonical_json({"wall_seconds": wall_seconds}).encode()
        return self._write_atomic(
            key, b'%s,"summary":%s,%s' % (head[:-1], body, tail[1:])
        )

    def _write_atomic(self, key: str, raw: bytes) -> Path:
        """Write one entry's stored bytes via temp file + rename."""
        target = self.path_for(key)
        try:
            handle, temp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except FileNotFoundError:
            # Only the first write to a new cache pays for the root.
            self.root.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as temp:
                temp.write(raw)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return target

    def _valid_texts(self) -> Iterator[Tuple[str, bytes]]:
        """``(key, stored bytes)`` of every valid entry, sorted by key.

        Read-only, unlike :meth:`get`: shard and merge walk caches that
        may be someone else's, so a corrupt file there is skipped and
        left where it is.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            if self._validated(path.stem, raw) is not None:
                yield path.stem, raw

    # -- sharding -----------------------------------------------------------

    def shard_of(self, key: str, shards: int) -> int:
        """Which of ``shards`` shards owns ``key``.

        Content-addressed assignment (the key's leading hex digits mod
        the shard count), so the split is deterministic: any machine
        slicing the same sweep produces the same partition.
        """
        if shards < 1:
            raise ValueError("need at least one shard")
        return int(key[:8], 16) % shards

    def shard(self, out_dirs: Sequence[Union[str, Path]]) -> List[int]:
        """Partition this cache's entries across ``out_dirs``.

        Every valid entry is copied (not moved) into the shard cache
        that :meth:`shard_of` assigns it, stored bytes and provenance
        metadata verbatim.  Returns the per-shard entry counts.
        """
        targets = [ResultCache(d) for d in out_dirs]
        counts = [0] * len(targets)
        for key, raw in self._valid_texts():
            index = self.shard_of(key, len(targets))
            targets[index]._write_atomic(key, raw)
            counts[index] += 1
        return counts

    def merge(
        self, sources: Sequence[Union[str, Path, "ResultCache"]]
    ) -> Dict[str, int]:
        """Fold other caches' entries into this one.

        Entries are copied with their provenance intact; a valid entry
        already present here wins (first writer wins — both sides
        stored the same content-addressed summary, so the race is
        benign, and a divergent duplicate would indicate a corrupt
        source anyway).  A local entry that fails validation is not
        present: the source's copy replaces it.  Corrupt source entries
        are skipped — not imported, and not deleted: a source is only
        ever read.  Returns ``{"merged": n, "skipped": n}``.
        """
        merged = 0
        skipped = 0
        for source in sources:
            cache = (
                source
                if isinstance(source, ResultCache)
                else ResultCache(source)
            )
            if cache.root.resolve() == self.root.resolve():
                continue
            for key, raw in cache._valid_texts():
                try:
                    local = self.path_for(key).read_bytes()
                except OSError:
                    local = b""
                if self._validated(key, local) is not None:
                    skipped += 1
                    continue
                self._write_atomic(key, raw)
                merged += 1
        return {"merged": merged, "skipped": skipped}

    # -- management ---------------------------------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        """All readable entries, sorted by key for stable listings."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            entry = self.get(path.stem)
            if entry is not None:
                yield entry

    def ls(self) -> List[Dict[str, Any]]:
        """Listing rows for ``repro cache ls``."""
        rows = []
        for entry in self.entries():
            cell = entry.cell
            rows.append(
                {
                    "key": entry.key[:12],
                    "label": entry.label,
                    "system": cell.get("system", "?"),
                    "seed": cell.get("seed", "?"),
                    "duration": cell.get("duration", "?"),
                    "age_seconds": max(time.time() - entry.created, 0.0),
                    "wall_seconds": entry.wall_seconds,
                    "stale": entry.code_version != code_version(),
                }
            )
        return rows

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # A crashed writer's temp file is never an entry.
        for path in self.root.glob("*.tmp"):
            self._discard(path)
        return removed

    def size_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            path.stat().st_size for path in self.root.glob("*.json")
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
