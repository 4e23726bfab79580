"""On-disk artifact store and the in-memory LRU that fronts it.

Artifacts are JSON documents keyed by request fingerprint (see
:mod:`.fingerprint`), sharded into two-character prefix directories
(``<root>/ab/abcdef....json``) so a large store never puts tens of
thousands of files in one directory. Writes go through a temp file +
:func:`os.replace` so concurrent sweep workers racing to store the same
fingerprint can never leave a torn artifact.

Every artifact embeds the pipeline version it was produced under;
:meth:`ArtifactStore.load` refuses (and deletes) artifacts from any
other version — stale results can never be served after a behavioural
change. A corrupt artifact (undecodable, not a JSON object, or missing
its body) is refused and deleted the same way, so it reads as one miss
instead of failing every run that touches it.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from ..core.canonical import PIPELINE_VERSION

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactStore",
    "CacheStats",
    "LRUCache",
    "default_cache_dir",
    "inspect_store",
]

#: Version tag of the artifact JSON layout itself.
ARTIFACT_SCHEMA = "repro.artifact/1"


def default_cache_dir() -> Path:
    """The shared artifact directory: ``$REPRO_CACHE_DIR`` if set, else
    ``.repro-cache`` under the current working directory. Used by both
    the ``repro bench`` CLI and the figure benches so they share
    artifacts."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path(".repro-cache")


@dataclass
class CacheStats:
    """Hit/miss/evict counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


@dataclass
class LRUCache:
    """A bounded least-recently-used mapping (fingerprint -> object).

    Thread-safe: every operation holds an internal lock, so threads
    sharing one cache can never observe a half-applied recency update
    or evict the same entry twice. The lock is re-entrant so ``stats``
    callbacks can safely re-enter.
    """

    max_entries: int = 128
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[str, Any]" = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def pop(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


def _envelope_body(doc: Any, key: str) -> Optional[Dict[str, Any]]:
    """``doc[key]`` when ``doc`` is an envelope whose ``key`` holds an
    object, else ``None`` (the document is corrupt)."""
    if not isinstance(doc, dict):
        return None
    body = doc.get(key)
    return body if isinstance(body, dict) else None


class ArtifactStore:
    """Content-addressed JSON artifact storage on disk.

    Args:
        root: store directory (created lazily on first save).
        pipeline_version: artifacts saved/accepted under this version;
            defaults to the package's current
            :data:`~repro.service.fingerprint.PIPELINE_VERSION`.
    """

    def __init__(
        self,
        root: Path,
        pipeline_version: str = PIPELINE_VERSION,
        stats: Optional[CacheStats] = None,
    ) -> None:
        self.root = Path(root)
        self.pipeline_version = pipeline_version
        self.stats = stats if stats is not None else CacheStats()

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def _sched_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.sched.json.gz"

    def save_schedules(
        self, fingerprint: str, schedules: Dict[str, Any]
    ) -> Path:
        """Persist schedule bodies as a gzip sidecar to the artifact.

        Kept out of the main JSON so metrics-only loads stay cheap; the
        sidecar is read only when a consumer (the engine) needs live
        schedules for a disk-hit result. Same temp-file + replace
        discipline as :meth:`save`.
        """
        path = self._sched_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": ARTIFACT_SCHEMA,
            "pipeline_version": self.pipeline_version,
            "fingerprint": fingerprint,
            "schedules": schedules,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, path)
        return path

    def load_schedules(
        self, fingerprint: str
    ) -> Optional[Dict[str, Any]]:
        """The schedule sidecar, or ``None`` when absent / stale.

        A stale or corrupt sidecar is deleted without touching the main
        artifact — the caller falls back to recompiling, never to
        serving wrong schedules.
        """
        path = self._sched_path(fingerprint)
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                doc = json.loads(fh.read())
        except FileNotFoundError:
            return None
        except (OSError, EOFError, ValueError, zlib.error):
            doc = None
        schedules = self._current_body(doc, "schedules")
        if schedules is None:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return schedules

    def save(self, fingerprint: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``fingerprint``.

        The payload is wrapped in an envelope recording the artifact
        schema and pipeline version.
        """
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": ARTIFACT_SCHEMA,
            "pipeline_version": self.pipeline_version,
            "fingerprint": fingerprint,
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, path)
        self.stats.stores += 1
        return path

    def _current_body(self, doc: Any, key: str) -> Optional[Dict[str, Any]]:
        """``doc[key]`` when ``doc`` is an intact envelope of the
        current artifact schema and pipeline version, else ``None``."""
        body = _envelope_body(doc, key)
        if (
            body is None
            or doc.get("schema") != ARTIFACT_SCHEMA
            or doc.get("pipeline_version") != self.pipeline_version
        ):
            return None
        return body

    def load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` on miss / stale version.

        Artifacts whose envelope doesn't match the current artifact
        schema and pipeline version are deleted (explicit invalidation
        on code-version change) and counted in
        ``stats.invalidations``; so are corrupt ones (undecodable, not
        a JSON object, or without an object ``payload``).
        """
        path = self._path(fingerprint)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            doc = None
        payload = self._current_body(doc, "payload")
        if payload is None:
            self.invalidate(fingerprint)
        return payload

    def invalidate(self, fingerprint: str) -> None:
        """Delete one artifact and its schedule sidecar (no-op when
        absent)."""
        try:
            self._path(fingerprint).unlink()
            self.stats.invalidations += 1
        except FileNotFoundError:
            pass
        try:
            self._sched_path(fingerprint).unlink()
        except FileNotFoundError:
            pass

    def fingerprints(self) -> Iterator[str]:
        """Iterate the fingerprints currently on disk (sorted)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for fp in list(self.fingerprints()):
            self.invalidate(fp)
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r})"


# -- operator surfaces --------------------------------------------------


def inspect_store(
    root: Path,
    pipeline_version: str = PIPELINE_VERSION,
) -> Dict[str, Any]:
    """Walk a sharded artifact store and summarize what is on disk.

    Returns a JSON-safe report: artifact/shard counts, total bytes,
    artifacts grouped by pipeline version, and how many are stale
    (i.e. would be invalidated on their next load). Corrupt artifacts
    count as both unreadable and stale. Missing or empty
    directories report zero artifacts rather than erroring, so the
    ``cache-stats`` verb is safe to point at a fresh checkout.
    """
    root = Path(root)
    report: Dict[str, Any] = {
        "root": str(root),
        "exists": root.is_dir(),
        "pipeline_version": pipeline_version,
        "artifacts": 0,
        "stale_artifacts": 0,
        "unreadable_artifacts": 0,
        "total_bytes": 0,
        "shards": 0,
        "by_pipeline_version": {},
    }
    if not root.is_dir():
        return report
    by_version: Dict[str, int] = {}
    shards = set()
    for path in sorted(root.glob("??/*.json")):
        report["artifacts"] += 1
        shards.add(path.parent.name)
        try:
            report["total_bytes"] += path.stat().st_size
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = None
        if _envelope_body(doc, "payload") is None:
            report["unreadable_artifacts"] += 1
            report["stale_artifacts"] += 1
            continue
        version = str(doc.get("pipeline_version"))
        by_version[version] = by_version.get(version, 0) + 1
        if (
            doc.get("schema") != ARTIFACT_SCHEMA
            or doc.get("pipeline_version") != pipeline_version
        ):
            report["stale_artifacts"] += 1
    report["shards"] = len(shards)
    report["by_pipeline_version"] = dict(sorted(by_version.items()))
    return report
