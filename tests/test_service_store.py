"""Tests for the artifact store, LRU tier, and compile service."""

import gzip
import json

import pytest

from repro.arch.machine import MultiSIMD
from repro.core import ProgramBuilder
from repro.service import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    CacheStats,
    CompileService,
    LRUCache,
    fingerprint_request,
)
from repro.toolflow import SchedulerConfig


def _program(n: int = 3):
    pb = ProgramBuilder()
    main = pb.module("main")
    q = main.register("q", n)
    for i in range(n - 1):
        main.cnot(q[i], q[i + 1])
    return pb.build("main")


FP = "ab" + "0" * 62
FP2 = "cd" + "1" * 62

#: Corrupt contents for a cache document. ``None`` stands for an intact
#: current-version envelope whose body (``payload``/``schedules``) is
#: missing.
CORRUPT = pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[]", b"42", None],
    ids=["not-utf8", "json-list", "json-number", "no-body"],
)


def _corrupt(path, content, body, gzipped=False):
    """Overwrite the cache document at ``path`` with ``content``."""
    opener = gzip.open if gzipped else open
    if content is None:
        with opener(path, "rb") as fh:
            doc = json.loads(fh.read())
        del doc[body]
        content = json.dumps(doc).encode()
    with opener(path, "wb") as fh:
        fh.write(content)


class TestLRUCache:
    def test_get_put_and_eviction_order(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh 'a'
        lru.put("c", 3)  # evicts 'b', the LRU entry
        assert "b" not in lru
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert lru.stats.evictions == 1

    def test_pop_and_clear(self):
        lru = LRUCache(max_entries=4)
        lru.put("a", 1)
        lru.pop("a")
        lru.pop("a")  # absent: no-op
        assert lru.get("a") is None
        lru.put("b", 2)
        lru.clear()
        assert len(lru) == 0


class TestArtifactStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"result": {"x": 1}, "spans": {}}
        path = store.save(FP, payload)
        assert path.parent.name == FP[:2]  # prefix sharding
        assert store.load(FP) == payload
        assert list(store.fingerprints()) == [FP]
        assert len(store) == 1

    def test_load_missing_returns_none(self, tmp_path):
        assert ArtifactStore(tmp_path).load(FP) is None

    def test_corrupt_artifact_is_invalidated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        store._path(FP).write_text("{not json")
        assert store.load(FP) is None
        assert not store._path(FP).exists()
        assert store.stats.invalidations == 1

    def test_stale_pipeline_version_is_invalidated(self, tmp_path):
        old = ArtifactStore(tmp_path, pipeline_version="2024.0")
        old.save(FP, {"x": 1})
        new = ArtifactStore(tmp_path, pipeline_version="2025.9")
        assert new.load(FP) is None  # refused...
        assert not new._path(FP).exists()  # ...and deleted

    def test_stale_schema_is_invalidated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        doc = json.loads(store._path(FP).read_text())
        doc["schema"] = "something/else"
        store._path(FP).write_text(json.dumps(doc))
        assert store.load(FP) is None

    def test_envelope_fields(self, tmp_path):
        store = ArtifactStore(tmp_path, pipeline_version="v1")
        store.save(FP, {"x": 1})
        doc = json.loads(store._path(FP).read_text())
        assert doc["schema"] == ARTIFACT_SCHEMA
        assert doc["pipeline_version"] == "v1"
        assert doc["fingerprint"] == FP

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        store.save(FP2, {"x": 2})
        assert store.clear() == 2
        assert len(store) == 0


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(memory_hits=3, disk_hits=1, misses=4)
        assert stats.hits == 4
        assert stats.lookups == 8
        assert stats.hit_rate == 0.5
        assert CacheStats().hit_rate == 0.0

    def test_to_dict_is_json_safe(self):
        json.dumps(CacheStats().to_dict())


class TestCompileService:
    def test_miss_then_memory_hit(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        prog, machine = _program(), MultiSIMD(k=2)
        cold = service.lookup(prog, machine)
        assert cold.cached is None
        assert cold.spans  # fresh compute records stage spans
        warm = service.lookup(_program(), machine)  # rebuilt program
        assert warm.cached == "memory"
        assert warm.result is cold.result
        assert warm.fingerprint == cold.fingerprint
        assert service.stats.memory_hits == 1
        assert service.stats.misses == 1

    def test_disk_hit_across_service_instances(self, tmp_path):
        a = CompileService(cache_dir=tmp_path)
        prog, machine = _program(), MultiSIMD(k=2)
        cold = a.lookup(prog, machine)

        b = CompileService(cache_dir=tmp_path)  # fresh memory tier
        warm = b.lookup(_program(), machine)
        assert warm.cached == "disk"
        assert b.stats.disk_hits == 1
        r, c = warm.result, cold.result
        assert r.total_gates == c.total_gates
        assert r.schedule_length == c.schedule_length
        assert r.runtime == c.runtime
        assert r.parallel_speedup == pytest.approx(c.parallel_speedup)
        assert r.comm_aware_speedup == pytest.approx(
            c.comm_aware_speedup
        )
        # Spans from the original compute travel with the artifact.
        assert warm.spans == cold.spans

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        a = CompileService(cache_dir=tmp_path)
        a.lookup(_program(), MultiSIMD(k=2))
        b = CompileService(cache_dir=tmp_path)
        assert b.lookup(_program(), MultiSIMD(k=2)).cached == "disk"
        assert b.lookup(_program(), MultiSIMD(k=2)).cached == "memory"

    def test_config_change_misses(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        service.lookup(_program(), MultiSIMD(k=2))
        entry = service.lookup(
            _program(), MultiSIMD(k=2), SchedulerConfig("rcp")
        )
        assert entry.cached is None
        assert service.stats.misses == 2

    def test_pipeline_version_change_invalidates(self, tmp_path):
        a = CompileService(cache_dir=tmp_path, pipeline_version="v1")
        a.lookup(_program(), MultiSIMD(k=2))
        assert len(a.store) == 1
        b = CompileService(cache_dir=tmp_path, pipeline_version="v2")
        # Same fingerprint paths aside, v2 requests also fingerprint
        # differently only via PIPELINE_VERSION constant; force the
        # point by loading the stored artifact directly.
        fp = next(iter(a.store.fingerprints()))
        assert b.store.load(fp) is None
        assert b.stats.invalidations == 1

    def test_explicit_invalidate_and_clear(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        entry = service.lookup(_program(), MultiSIMD(k=2))
        service.invalidate(entry.fingerprint)
        assert service.lookup(_program(), MultiSIMD(k=2)).cached is None
        service.clear()
        assert len(service.memory) == 0
        assert len(service.store) == 0

    def test_use_cache_false_recomputes_and_refreshes(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        service.lookup(_program(), MultiSIMD(k=2))
        entry = service.lookup(
            _program(), MultiSIMD(k=2), use_cache=False
        )
        assert entry.cached is None
        # ... but the artifact is refreshed for later callers.
        assert service.lookup(
            _program(), MultiSIMD(k=2)
        ).cached == "memory"

    def test_memory_only_service(self):
        service = CompileService(cache_dir=None)
        assert service.store is None
        service.lookup(_program(), MultiSIMD(k=2))
        assert service.lookup(
            _program(), MultiSIMD(k=2)
        ).cached == "memory"

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        service = CompileService(
            cache_dir=tmp_path, max_memory_entries=1
        )
        service.lookup(_program(2), MultiSIMD(k=2))
        service.lookup(_program(3), MultiSIMD(k=2))  # evicts first
        assert service.stats.evictions == 1
        entry = service.lookup(_program(2), MultiSIMD(k=2))
        assert entry.cached == "disk"

    def test_fingerprint_matches_free_function(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        prog, machine = _program(), MultiSIMD(k=2)
        entry = service.lookup(prog, machine)
        assert entry.fingerprint == fingerprint_request(prog, machine)


class TestLRUConcurrency:
    def test_concurrent_mixed_operations_keep_invariants(self):
        """Regression: pre-lock, racing put/get could corrupt the
        OrderedDict mid-``move_to_end`` or double-count an eviction.
        Hammer one small LRU from several threads and check the
        bounded-size invariant and counter consistency afterwards."""
        import threading

        lru = LRUCache(max_entries=8)
        errors = []
        barrier = threading.Barrier(4)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(2000):
                    key = f"k{(seed * 2000 + i) % 40}"
                    op = i % 3
                    if op == 0:
                        lru.put(key, i)
                    elif op == 1:
                        lru.get(key)
                    else:
                        lru.pop(key)
                    assert len(lru) <= 8
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert len(lru) <= 8
        assert lru.stats.evictions > 0

    def test_eviction_under_contention_counts_once_per_entry(self):
        """Every insertion beyond capacity evicts exactly one entry;
        with the lock the counters must balance exactly."""
        import threading

        lru = LRUCache(max_entries=4)
        per_thread, threads_n = 500, 4

        def writer(seed: int) -> None:
            for i in range(per_thread):
                lru.put(f"t{seed}-{i}", i)  # all keys unique

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        total_puts = per_thread * threads_n
        assert len(lru) == 4
        assert lru.stats.evictions == total_puts - 4


class TestInspectStore:
    def test_missing_directory(self, tmp_path):
        from repro.service import inspect_store

        report = inspect_store(tmp_path / "nope")
        assert report["exists"] is False
        assert report["artifacts"] == 0

    def test_counts_artifacts_shards_and_stale(self, tmp_path):
        from repro.service import inspect_store

        store = ArtifactStore(tmp_path)
        store.save(FP, {"result": {"x": 1}})
        store.save(FP2, {"result": {"y": 2}})
        stale = ArtifactStore(tmp_path, pipeline_version="museum")
        stale.save("ef" + "2" * 62, {"result": {"z": 3}})
        broken = tmp_path / "99"
        broken.mkdir()
        (broken / ("9" * 64 + ".json")).write_text("{nope")

        report = inspect_store(tmp_path)
        assert report["exists"] is True
        assert report["artifacts"] == 4
        assert report["shards"] == 4
        assert report["stale_artifacts"] == 2  # museum + unreadable
        assert report["unreadable_artifacts"] == 1
        assert report["total_bytes"] > 0
        assert report["by_pipeline_version"]["museum"] == 1


class TestCorruptDocuments:
    """A corrupt artifact or sidecar reads as one miss: it is refused,
    deleted and counted like a stale version, never raised."""

    @CORRUPT
    def test_load_invalidates(self, tmp_path, content):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        _corrupt(store._path(FP), content, "payload")
        assert store.load(FP) is None
        assert not store._path(FP).exists()
        assert store.stats.invalidations == 1

    @CORRUPT
    def test_lookup_recomputes_then_hits(self, tmp_path, content):
        fp = CompileService(cache_dir=tmp_path).lookup(
            _program(), MultiSIMD(k=2)
        ).fingerprint
        _corrupt(ArtifactStore(tmp_path)._path(fp), content, "payload")
        service = CompileService(cache_dir=tmp_path)
        assert service.lookup(_program(), MultiSIMD(k=2)).cached is None
        assert service.stats.invalidations == 1
        warm = CompileService(cache_dir=tmp_path)
        assert warm.lookup(_program(), MultiSIMD(k=2)).cached == "disk"

    @CORRUPT
    def test_load_schedules_deletes_sidecar_only(self, tmp_path, content):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        store.save_schedules(FP, {"main": {}})
        _corrupt(store._sched_path(FP), content, "schedules", gzipped=True)
        assert store.load_schedules(FP) is None
        assert not store._sched_path(FP).exists()
        assert store.load(FP) == {"x": 1}

    @CORRUPT
    def test_inspect_counts_unreadable_and_stale(self, tmp_path, content):
        from repro.service import inspect_store

        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        store.save(FP2, {"y": 2})
        _corrupt(store._path(FP2), content, "payload")
        report = inspect_store(tmp_path)
        assert report["artifacts"] == 2
        assert report["unreadable_artifacts"] == 1
        assert report["stale_artifacts"] == 1
        assert sum(report["by_pipeline_version"].values()) == 1


class TestScheduleSidecar:
    """The gzip schedule sidecar: saved on fresh computes, rehydrated
    on disk hits, and never allowed to go stale."""

    def _schedules(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        entry = service.lookup(_program(), MultiSIMD(k=2))
        assert entry.result.schedules
        return service, entry

    def test_save_load_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"main": {"algorithm": "lpfs", "timesteps": []}}
        path = store.save_schedules(FP, payload)
        assert path.name.endswith(".sched.json.gz")
        assert path.parent.name == FP[:2]
        assert store.load_schedules(FP) == payload
        assert store.load_schedules(FP2) is None

    def test_disk_hit_rehydrates_bit_identical_schedules(
        self, tmp_path
    ):
        from repro.sched.report import schedule_to_dict

        _, cold = self._schedules(tmp_path)
        warm = CompileService(cache_dir=tmp_path).lookup(
            _program(), MultiSIMD(k=2)
        )
        assert warm.cached == "disk"
        assert set(warm.result.schedules) == set(cold.result.schedules)
        for name, sched in cold.result.schedules.items():
            assert schedule_to_dict(
                warm.result.schedules[name]
            ) == schedule_to_dict(sched)

    def test_corrupt_sidecar_deleted_and_metrics_survive(
        self, tmp_path
    ):
        service, cold = self._schedules(tmp_path)
        fp = cold.fingerprint
        sidecar = service.store._sched_path(fp)
        sidecar.write_bytes(b"\x1f\x8b not really gzip")
        fresh = CompileService(cache_dir=tmp_path)
        warm = fresh.lookup(_program(), MultiSIMD(k=2))
        # The main artifact still serves (metrics intact); schedules
        # fall back to empty and the bad sidecar is gone.
        assert warm.cached == "disk"
        assert warm.result.schedules == {}
        assert warm.result.total_gates == cold.result.total_gates
        assert not sidecar.exists()

    def test_stale_sidecar_version_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path, pipeline_version="v1")
        store.save_schedules(FP, {"main": {}})
        new = ArtifactStore(tmp_path, pipeline_version="v2")
        assert new.load_schedules(FP) is None
        assert not new._sched_path(FP).exists()

    def test_invalidate_removes_sidecar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        store.save_schedules(FP, {"main": {}})
        store.invalidate(FP)
        assert not store._path(FP).exists()
        assert not store._sched_path(FP).exists()

    def test_clear_removes_sidecars(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(FP, {"x": 1})
        store.save_schedules(FP, {"main": {}})
        assert store.clear() == 1
        assert not store._sched_path(FP).exists()

    def test_memory_hit_keeps_live_schedules(self, tmp_path):
        service, cold = self._schedules(tmp_path)
        warm = service.lookup(_program(), MultiSIMD(k=2))
        assert warm.cached == "memory"
        assert warm.result.schedules is cold.result.schedules
