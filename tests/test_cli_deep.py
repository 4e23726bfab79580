"""CLI contract for ``lint --deep`` and code-prefix ``--fail-on``."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

DEEP_CORPUS = Path(__file__).parent / "corpus" / "deep"
BUGGY = str(DEEP_CORPUS / "ql402_use_after_release.scd")
CLEAN = str(DEEP_CORPUS / "clean_uncompute.scd")


def run_lint(*argv, cache_dir=None):
    cache = (
        ["--cache-dir", str(cache_dir)] if cache_dir else ["--no-cache"]
    )
    return main(["lint", *argv, *cache])


class TestDeepExitCodes:
    def test_error_finding_fails_lint(self, capsys):
        assert run_lint(BUGGY, "--deep") == 1
        assert "QL402" in capsys.readouterr().out

    def test_clean_file_passes(self, capsys):
        assert run_lint(CLEAN, "--deep") == 0

    def test_without_deep_the_bug_is_invisible(self):
        assert run_lint(BUGGY) == 0

    def test_fail_on_never(self):
        assert run_lint(BUGGY, "--deep", "--fail-on", "never") == 0


class TestFailOnCodePrefix:
    def test_matching_prefix_fails(self):
        assert run_lint(BUGGY, "--deep", "--fail-on", "QL4") == 1
        assert run_lint(BUGGY, "--deep", "--fail-on", "QL402") == 1

    def test_non_matching_prefix_passes(self):
        assert run_lint(BUGGY, "--deep", "--fail-on", "QL5") == 0

    def test_clean_file_passes_any_prefix(self):
        assert run_lint(CLEAN, "--deep", "--fail-on", "QL") == 0

    def test_bogus_fail_on_is_a_usage_error(self, capsys):
        assert run_lint(BUGGY, "--fail-on", "bogus") == 2
        assert run_lint(BUGGY, "--fail-on", "QL40200") == 2

    def test_prefix_works_without_deep(self):
        # Prefix matching applies to the shallow battery too.
        assert run_lint(BUGGY, "--fail-on", "QL4") == 0


class TestDeepJson:
    def test_json_carries_deep_block(self, capsys, tmp_path):
        code = run_lint(
            CLEAN,
            "--deep",
            "--format",
            "json",
            cache_dir=tmp_path / "cache",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        deep = doc["deep"]
        assert deep["machine"] == {"k": 4, "d": 4}
        info = deep["sources"][CLEAN]
        assert info["modules"] >= 2
        assert info["schedules_audited"] >= 1
        assert info["profiles_audited"] >= 1
        assert deep["summary_cache"]["misses"] > 0

    def test_warm_run_hits_summary_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert (
            run_lint(CLEAN, "--deep", "--format", "json", cache_dir=cache)
            == 0
        )
        capsys.readouterr()
        assert (
            run_lint(CLEAN, "--deep", "--format", "json", cache_dir=cache)
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        stats = doc["deep"]["summary_cache"]
        assert stats["hits"] > 0
        assert stats["misses"] == 0
        assert doc["deep"]["sources"][CLEAN]["compile_cached"]

    def test_corrupt_cache_recomputes_then_hits(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = (CLEAN, "--deep", "--format", "json")
        assert run_lint(*argv, cache_dir=cache) == 0
        corrupted = list(cache.rglob("*.json"))
        assert any(p.parent.parent.name == "summaries" for p in corrupted)
        for path in corrupted:
            path.write_text("42")
        capsys.readouterr()
        assert run_lint(*argv, cache_dir=cache) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deep"]["summary_cache"]["hits"] == 0
        assert not doc["deep"]["sources"][CLEAN]["compile_cached"]
        assert run_lint(*argv, cache_dir=cache) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deep"]["summary_cache"]["misses"] == 0
        assert doc["deep"]["sources"][CLEAN]["compile_cached"]

    def test_machine_flags_flow_through(self, capsys):
        # A (1,4) machine can't trigger the width-overprovision rule.
        ql501 = str(DEEP_CORPUS / "ql501_width_overprovision.scd")
        assert (
            run_lint(ql501, "--deep", "-k", "4", "-d", "4", "--fail-on", "QL5")
            == 1
        )
        assert "QL501" in capsys.readouterr().out
        assert (
            run_lint(ql501, "--deep", "-k", "1", "-d", "4", "--fail-on", "QL5")
            == 0
        )
