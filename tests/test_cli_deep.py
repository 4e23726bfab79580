"""CLI contract for ``lint --deep`` and code-prefix ``--fail-on``."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

DEEP_CORPUS = Path(__file__).parent / "corpus" / "deep"
BUGGY = str(DEEP_CORPUS / "ql402_use_after_release.scd")
CLEAN = str(DEEP_CORPUS / "clean_uncompute.scd")


def run_lint(*argv):
    return main(["lint", *argv])


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


class TestDeepFth:
    def test_file_compiles_at_the_shared_default(self, monkeypatch):
        """``lint --deep`` on a file compiles at the FTh that
        ``compile`` uses for it (4,096), not the paper's 2M."""
        import repro.cli as cli

        seen = []
        real = cli.compile_and_schedule

        def spy(*args, **kwargs):
            seen.append(kwargs["fth"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "compile_and_schedule", spy)
        assert run_lint(CLEAN, "--deep") == 0
        assert seen == [4096]


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
    def test_json_carries_deep_block(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_lint(CLEAN, "--deep", "--format", "json")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        deep = doc["deep"]
        assert set(deep) == {"machine", "sources"}
        assert deep["machine"] == {"k": 4, "d": 4}
        info = deep["sources"][CLEAN]
        assert set(info) == {
            "modules", "schedules_audited", "profiles_audited",
        }
        assert info["modules"] >= 2
        assert info["schedules_audited"] >= 1
        assert info["profiles_audited"] >= 1
        # A deep lint leaves nothing behind in the working directory.
        assert list(tmp_path.iterdir()) == []

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


class TestDeepTopology:
    def test_leaf_too_big_for_the_cores_is_a_usage_error(self, capsys):
        argv = ["SHA-1", "--deep", "--topology", "mesh", "--cores", "4"]
        assert run_lint(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: SHA-1: 200 qubit(s) exceed total capacity "
            "16 x 4 core(s)\n"
        )
