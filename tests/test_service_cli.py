"""Tests for the ``repro cache-stats`` CLI verb."""

import json

from repro.arch.machine import MultiSIMD
from repro.cli import main
from repro.core import ProgramBuilder
from repro.service import CompileService


def _cnot_program():
    pb = ProgramBuilder()
    mod = pb.module("main")
    q = mod.register("q", 2)
    mod.cnot(q[0], q[1])
    return pb.build("main")


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
    """``cache-stats`` reports corrupt artifacts as unreadable and
    stale, since their next load deletes them."""

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
