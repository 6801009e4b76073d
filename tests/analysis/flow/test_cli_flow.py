"""``repro flow`` CLI: exit codes, reports, determinism."""

import json
import os
import random

import pytest

from repro.analysis.flow.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHAIN = os.path.join(FIXTURES, "chain")
SANITIZED = os.path.join(FIXTURES, "sanitized")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.paths == ["src"]
        assert args.format == "text" and args.output is None

    def test_bad_format_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--format", "xml"])
        assert excinfo.value.code == 2


class TestExitCodes:
    def test_flow_free_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("def f(x):\n    return x\n")
        assert main([str(tmp_path)]) == 0
        assert "clean: no unsanitized flows" in capsys.readouterr().out

    def test_final_src_tree_exits_zero(self, capsys):
        # The acceptance bar: src/ carries zero unsanitized flows.
        assert main(["src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fixture_flow_exits_one(self, capsys):
        assert main([CHAIN]) == 1
        out = capsys.readouterr().out
        assert "DF001" in out and "[source]" in out and "[sink]" in out
        assert "1 flow(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestBaselineFlow:
    def test_committed_repo_baseline_gates_src_clean(self, capsys):
        # The repo commits no flow baseline and repro flow takes none:
        # src/ gates clean on inline sanitized= markers alone.
        assert not os.path.exists("flow-baseline.json")
        assert main(["src"]) == 0
        assert "baselined" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--baseline", "flow-baseline.json"])
        assert excinfo.value.code == 2


class TestReports:
    def test_json_output_file(self, tmp_path):
        report = tmp_path / "flow.json"
        assert main([CHAIN, "--format", "json",
                     "--output", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["count"] == 1 and "baselined" not in payload
        finding = payload["findings"][0]
        assert finding["rule"] == "DF001"
        assert finding["source"] == "time.time"
        assert finding["sink"] == "repro.ops.routes.canonical_bytes"
        assert len(finding["trace"]) == 11
        assert all(set(hop) == {"path", "line", "note"}
                   for hop in finding["trace"])

    def test_reports_byte_identical_for_shuffled_paths(self, tmp_path):
        trees = [CHAIN, SANITIZED, os.path.join(CHAIN, "chain.py")]
        shuffled = list(trees)
        random.Random(7).shuffle(shuffled)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--format", "json", "--output", str(a)] + trees) == 1
        assert main(["--format", "json", "--output", str(b)]
                    + shuffled) == 1
        assert a.read_bytes() == b.read_bytes()


class TestReproCliDelegation:
    def test_repro_flow_subcommand(self, capsys):
        from repro.cli import main as repro_main
        assert repro_main(["flow", CHAIN]) == 1
        assert "DF001" in capsys.readouterr().out

    def test_repro_flow_help_is_the_module_parsers(self, capsys):
        from repro.cli import main as repro_main
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["flow", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()
