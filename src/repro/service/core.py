"""The compilation service: content-addressed cached compiles.

:class:`CompileService` wraps :func:`repro.toolflow.compile_and_schedule`
with two cache tiers keyed by request fingerprint:

1. an **in-memory LRU** holding live :class:`CompileResult` objects
   (schedule bodies included) for same-process reuse — this is what
   replaced the unbounded ``functools.lru_cache`` the figure benches
   used to rely on;
2. an **on-disk artifact store** holding JSON exports
   (:func:`~repro.sched.report.compile_result_to_dict`), shared across
   processes and runs.

A disk hit reconstructs a *metrics-equivalent* result
(:func:`~repro.sched.report.compile_result_from_dict`): every headline
number, per-module profile and diagnostic round-trips exactly. Schedule
bodies live in a gzip **sidecar** next to the main artifact (kept out
of the metrics JSON because they dominate its size) and are rehydrated
on disk hits, so consumers such as the ``lint --deep`` schedule audit
get live schedules from the cache; results loaded from pre-sidecar
stores still come back with empty ``schedules``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..arch.machine import MultiSIMD
from ..core.module import Program
from ..passes.decompose import DecomposeConfig
from ..passes.flatten import DEFAULT_FTH
from ..toolflow import CompileResult, SchedulerConfig, compile_and_schedule
from ..sched.report import (
    compile_result_from_dict,
    compile_result_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from .fingerprint import PIPELINE_VERSION, fingerprint_request
from .store import ArtifactStore, CacheStats, LRUCache

__all__ = ["CompileService", "ServiceEntry"]


@dataclass
class ServiceEntry:
    """One service lookup: the result plus its cache provenance.

    Attributes:
        result: the (possibly reconstructed) compile result.
        fingerprint: content fingerprint of the request.
        cached: ``None`` for a fresh compute, ``"memory"`` or ``"disk"``
            for a cache hit.
    """

    result: CompileResult
    fingerprint: str
    cached: Optional[str]


def _rehydrate_schedules(store: ArtifactStore, fp: str, result) -> None:
    """Attach sidecar schedule bodies to a disk-loaded result (no-op
    when the sidecar is missing or stale: the result then keeps empty
    ``schedules``, as one loaded from a pre-sidecar store does)."""
    if result.schedules:
        return
    payload = store.load_schedules(fp)
    if payload is None:
        return
    result.schedules = {
        name: schedule_from_dict(s) for name, s in payload.items()
    }


class CompileService:
    """Content-addressed compile cache over the full toolflow.

    :meth:`lookup` serves a request through the memory tier, then the
    disk tier, then a fresh compute; a stale or corrupt artifact counts
    as a miss and is recomputed. :meth:`compile` returns just the
    result. Both tiers share one :class:`CacheStats`.

    Args:
        cache_dir: artifact store directory; ``None`` disables the disk
            tier (memory LRU only).
        max_memory_entries: in-memory LRU capacity.
        pipeline_version: override for cache-invalidation tests.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 128,
        pipeline_version: str = PIPELINE_VERSION,
    ) -> None:
        self.stats = CacheStats()
        self.memory: LRUCache = LRUCache(
            max_entries=max_memory_entries, stats=self.stats
        )
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(
                Path(cache_dir),
                pipeline_version=pipeline_version,
                stats=self.stats,
            )
            if cache_dir is not None
            else None
        )

    # -- cache plumbing ------------------------------------------------

    def invalidate(self, fingerprint: str) -> None:
        """Drop one fingerprint from both tiers."""
        self.memory.pop(fingerprint)
        if self.store is not None:
            self.store.invalidate(fingerprint)

    def clear(self) -> None:
        """Drop everything from both tiers."""
        self.memory.clear()
        if self.store is not None:
            self.store.clear()

    # -- the service call ----------------------------------------------

    def compile(
        self,
        program: Program,
        machine: MultiSIMD,
        scheduler: Optional[SchedulerConfig] = None,
        fth: int = DEFAULT_FTH,
        decompose: bool = True,
        decompose_config: Optional[DecomposeConfig] = None,
        optimize: bool = False,
        strict: bool = False,
        use_cache: bool = True,
    ) -> CompileResult:
        """Cached equivalent of
        :func:`~repro.toolflow.compile_and_schedule`."""
        return self.lookup(
            program,
            machine,
            scheduler,
            fth=fth,
            decompose=decompose,
            decompose_config=decompose_config,
            optimize=optimize,
            strict=strict,
            use_cache=use_cache,
        ).result

    def lookup(
        self,
        program: Program,
        machine: MultiSIMD,
        scheduler: Optional[SchedulerConfig] = None,
        fth: int = DEFAULT_FTH,
        decompose: bool = True,
        decompose_config: Optional[DecomposeConfig] = None,
        optimize: bool = False,
        strict: bool = False,
        use_cache: bool = True,
    ) -> ServiceEntry:
        """Serve a compile request through the cache tiers.

        ``use_cache=False`` forces a fresh compute (and still stores
        the artifact, refreshing both tiers).
        """
        scheduler = scheduler or SchedulerConfig()
        fp = fingerprint_request(
            program,
            machine,
            scheduler,
            fth=fth,
            decompose=decompose,
            decompose_config=decompose_config,
            optimize=optimize,
            strict=strict,
        )
        if use_cache:
            result = self.memory.get(fp)
            if result is not None:
                self.stats.memory_hits += 1
                return ServiceEntry(result, fp, cached="memory")
            if self.store is not None:
                payload = self.store.load(fp)
                if payload is not None:
                    self.stats.disk_hits += 1
                    result = compile_result_from_dict(payload["result"])
                    _rehydrate_schedules(self.store, fp, result)
                    self.memory.put(fp, result)
                    return ServiceEntry(result, fp, cached="disk")
            self.stats.misses += 1

        result = compile_and_schedule(
            program,
            machine,
            scheduler,
            fth=fth,
            decompose=decompose,
            decompose_config=decompose_config,
            optimize=optimize,
            strict=strict,
        )
        self.memory.put(fp, result)
        if self.store is not None:
            self.store.save(fp, {"result": compile_result_to_dict(result)})
            if result.schedules:
                self.store.save_schedules(
                    fp,
                    {
                        name: schedule_to_dict(s)
                        for name, s in sorted(result.schedules.items())
                    },
                )
        return ServiceEntry(result, fp, cached=None)

    def stats_dict(self) -> Dict[str, Any]:
        """JSON-safe counter snapshot (both tiers share the counters)."""
        return self.stats.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.store.root if self.store else "memory-only"
        return (
            f"CompileService({where}, {len(self.memory)} in memory, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
