"""Tests for the ``repro bench`` and ``repro cache-stats`` CLI verbs."""

import gzip
import json

from repro.arch.machine import MultiSIMD
from repro.cli import main
from repro.core import ProgramBuilder
from repro.service import (
    SWEEP_SCHEMA,
    CompileService,
    validate_sweep_payload,
)
from repro.service.sweep import _SERVICES


def _bench(tmp_path, *extra, out="sweep.json"):
    path = tmp_path / out
    argv = [
        "bench", "BF", "-k", "2", "--serial",
        "--cache-dir", str(tmp_path / "cache"),
        "-o", str(path),
        *extra,
    ]
    return main(argv), path


def _cnot_program():
    pb = ProgramBuilder()
    mod = pb.module("main")
    q = mod.register("q", 2)
    mod.cnot(q[0], q[1])
    return pb.build("main")


class TestBenchCommand:
    def test_text_output_and_report(self, tmp_path, capsys):
        code, path = _bench(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "BF" in out
        assert "1/1 jobs ok" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == SWEEP_SCHEMA
        assert validate_sweep_payload(payload) == []
        job = payload["jobs"][0]
        assert job["status"] == "ok"
        assert job["metrics"]["total_gates"] > 0
        # Per-stage instrumentation made it into the report.
        assert any(k.startswith("pass:") for k in job["spans"])
        assert any(k.startswith("schedule:") for k in job["spans"])

    def test_second_run_hits_cache_with_identical_metrics(
        self, tmp_path, capsys
    ):
        code, cold_path = _bench(tmp_path, out="cold.json")
        assert code == 0
        code, warm_path = _bench(tmp_path, out="warm.json")
        assert code == 0
        assert "1 served from cache (100%)" in capsys.readouterr().out
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        assert warm["cache"]["hit_rate"] >= 0.9
        assert warm["jobs"][0]["cached"] in ("memory", "disk")
        assert [j["metrics"] for j in warm["jobs"]] == [
            j["metrics"] for j in cold["jobs"]
        ]
        assert [j["fingerprint"] for j in warm["jobs"]] == [
            j["fingerprint"] for j in cold["jobs"]
        ]

    def test_json_format(self, tmp_path, capsys):
        code, _ = _bench(tmp_path, "--format", "json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SWEEP_SCHEMA
        assert len(payload["jobs"]) == 1

    def test_grid_options(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        code = main([
            "bench", "BF,Grovers", "--schedulers", "rcp,lpfs",
            "-k", "2", "--serial", "--no-cache",
            "-o", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["jobs"]) == 4
        assert payload["grid"]["benchmarks"] == ["BF", "Grovers"]
        assert payload["grid"]["algorithms"] == ["rcp", "lpfs"]
        capsys.readouterr()

    def test_unknown_benchmark_is_usage_error(self, capsys):
        code = main([
            "bench", "NOPE", "--serial", "-o", "",
        ])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bad_scheduler_is_usage_error(self, capsys):
        code = main([
            "bench", "BF", "--schedulers", "fifo", "--serial",
            "-o", "",
        ])
        assert code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_empty_output_skips_report(self, tmp_path, capsys):
        code = main([
            "bench", "BF", "-k", "2", "--serial", "--no-cache",
            "-o", "",
        ])
        assert code == 0
        assert "wrote" not in capsys.readouterr().out

    def test_no_cache_never_hits(self, tmp_path, capsys):
        for _ in range(2):
            code = main([
                "bench", "BF", "-k", "2", "--serial", "--no-cache",
                "-o", "",
            ])
            assert code == 0
        assert "0 served from cache" in capsys.readouterr().out


class TestCacheStatsCommand:
    def test_missing_store_reports_cleanly(self, tmp_path, capsys):
        code = main(
            ["cache-stats", "--cache-dir", str(tmp_path / "nope")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(missing)" in out
        assert "artifacts:         0" in out

    def test_text_report_with_artifacts(self, tmp_path, capsys):
        service = CompileService(cache_dir=tmp_path)
        service.lookup(_cnot_program(), MultiSIMD(k=2))
        code = main(["cache-stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "artifacts:         1" in out

    def test_json_format(self, tmp_path, capsys):
        code = main(
            [
                "cache-stats",
                "--cache-dir", str(tmp_path),
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifacts"] == 0
        assert doc["exists"] is True  # tmp_path itself exists

    def test_respects_repro_cache_dir_env(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["cache-stats", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root"] == str(tmp_path)


class TestCorruptCache:
    """A corrupt artifact or sidecar reads as a miss: the verb exits 0,
    recomputes, and the next run hits the cache."""

    @staticmethod
    def _bench_run(tmp_path):
        """One ``bench`` run that starts with a cold memory tier, as a
        fresh process would."""
        _SERVICES.pop(str(tmp_path / "cache"), None)
        return _bench(tmp_path, "--schedulers", "rcp")

    def test_bench_recomputes_corrupt_artifact(self, tmp_path, capsys):
        assert self._bench_run(tmp_path)[0] == 0
        for path in (tmp_path / "cache").glob("??/*.json"):
            path.write_text("[]")
        capsys.readouterr()
        code, report = self._bench_run(tmp_path)
        assert code == 0
        assert "0 served from cache" in capsys.readouterr().out
        assert json.loads(report.read_text())["jobs"][0]["status"] == "ok"
        assert self._bench_run(tmp_path)[0] == 0
        assert "1 served from cache (100%)" in capsys.readouterr().out

    def test_bench_survives_corrupt_sidecar(self, tmp_path, capsys):
        assert self._bench_run(tmp_path)[0] == 0
        sidecars = list((tmp_path / "cache").glob("??/*.sched.json.gz"))
        assert sidecars
        for path in sidecars:
            with gzip.open(path, "wb") as fh:
                fh.write(b"\xff\xfe")
        capsys.readouterr()
        assert self._bench_run(tmp_path)[0] == 0
        assert "1 served from cache (100%)" in capsys.readouterr().out
        assert not any(path.exists() for path in sidecars)

    def test_cache_stats_counts_corrupt_artifacts(self, tmp_path, capsys):
        service = CompileService(cache_dir=tmp_path)
        for k in (2, 4):
            service.lookup(_cnot_program(), MultiSIMD(k=k))
        undecodable, bodyless = sorted(tmp_path.glob("??/*.json"))
        undecodable.write_bytes(b"\xff\xfe")
        doc = json.loads(bodyless.read_text())
        del doc["payload"]
        bodyless.write_text(json.dumps(doc))
        assert main(["cache-stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artifacts:         2" in out
        assert "stale artifacts:   2 (2 unreadable)" in out
