"""CLI surface tests for the multi-core verbs and flags."""

import json

from repro.cli import EXIT_USAGE, main


class TestPartitionVerb:
    def test_text_report(self, capsys):
        assert main(["partition", "BF", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "cut" in out
        assert "occupancy" in out

    def test_json_report(self, capsys):
        rc = main(
            [
                "partition", "BF",
                "--topology", "mesh", "--cores", "4",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["topology"]["cores"] == 4
        assert doc["topology"]["name"] == "mesh"
        assert doc["partitions"]
        for report in doc["partitions"].values():
            assert sum(report["occupancy"]) == len(report["assignment"])
        assert set(doc["leaves"]) == set(doc["partitions"])

    def test_scale_source_takes_the_shared_fth_default(self, capsys):
        # A scale source flattens everything by default, as in compile
        # and execute: the one leaf is the entry, not the adder kernel.
        rc = main(
            [
                "partition", "scale:adder:2e4",
                "--topology", "line", "--cores", "2",
                "-k", "4", "-d", "8", "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["leaves"]) == ["main"]

    def test_forced_cut_reports_makespan_split(self, capsys):
        rc = main(
            [
                "partition", "BF",
                "--topology", "line", "--cores", "4",
                "-d", "2", "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        split = [
            leaf
            for leaf in doc["leaves"].values()
            if leaf["intercore_teleports"]
        ]
        assert split
        for leaf in split:
            assert leaf["makespan"] == (
                leaf["intra_runtime"] + leaf["intercore_cycles"]
            )

    def test_bad_topology_is_usage_error(self, capsys):
        rc = main(["partition", "BF", "--topology", "torus"])
        assert rc == EXIT_USAGE

    def test_overflow_is_usage_error(self, capsys):
        rc = main(
            ["partition", "BF", "--cores", "2", "-k", "1", "-d", "1"]
        )
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestExecuteTopology:
    def test_json_decomposition_ok(self, capsys):
        rc = main(
            [
                "execute", "BF",
                "--topology", "line", "--cores", "4", "-d", "2",
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decomposition_ok"] is True
        assert doc["ideal_match"] is True
        assert doc["machine"]["cores"] == 4
        assert doc["machine"]["topology"] == "line"
        assert doc["metrics"]["engine_decomposition_ok"] == 1

    def test_finite_link_rate_stalls_but_decomposes(self, capsys):
        rc = main(
            [
                "execute", "BF",
                "--topology", "line", "--cores", "4", "-d", "2",
                "--link-epr-rate", "0.01",
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decomposition_ok"] is True
        assert doc["ideal_match"] is False
        assert doc["stalls"]["intercore"] > 0
        # The invariant is per leaf: realized == analytic + stalls.
        leaf_docs = [
            m for m in doc["modules"].values() if not m.get("coarse")
        ]
        assert leaf_docs
        for leaf in leaf_docs:
            assert leaf["realized_runtime"] == (
                leaf["analytic_runtime"] + leaf["stalls"]["total"]
            )

    def test_text_report_mentions_intercore(self, capsys):
        rc = main(
            [
                "execute", "BF",
                "--topology", "line", "--cores", "4", "-d", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "inter-core" in out
        assert "decomposition" in out

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "execute", "BF",
                "--topology", "line", "--cores", "2",
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert events

    def test_bad_topology_is_usage_error(self):
        rc = main(["execute", "BF", "--topology", "torus"])
        assert rc == EXIT_USAGE


class TestLintTopology:
    def test_topology_requires_deep(self, capsys):
        rc = main(["lint", "BF", "--topology", "line"])
        assert rc == EXIT_USAGE
        assert "--deep" in capsys.readouterr().err

    def test_deep_multicore_audit_clean(self, capsys):
        rc = main(
            [
                "lint", "BF", "--deep",
                "--topology", "line", "--cores", "2",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        info = doc["deep"]["sources"]["BF"]["multicore"]
        assert info["topology"] == "line"
        assert info["cores"] == 2
        assert info["leaves_audited"] >= 1
