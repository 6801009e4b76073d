"""``repro flow`` CLI: exit codes, baseline plumbing, determinism."""

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
        assert args.format == "text" and args.baseline is None

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
        # The acceptance bar: src/ carries zero unbaselined flows.
        assert main(["src", "--no-config"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fixture_flow_exits_one(self, capsys):
        assert main([CHAIN]) == 1
        out = capsys.readouterr().out
        assert "DF001" in out and "[source]" in out and "[sink]" in out
        assert "1 flow(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "pyproject.toml"
        bad.write_text("[tool.darpaflow]\nsurprise = true\n")
        assert main(["--config", str(bad), CHAIN]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_update_baseline_without_baseline_exits_two(self, capsys):
        assert main(["--update-baseline", CHAIN]) == 2
        assert "--baseline" in capsys.readouterr().err


class TestBaselineFlow:
    def test_update_then_gate(self, tmp_path, capsys):
        baseline = str(tmp_path / "flow-baseline.json")
        assert main([CHAIN, "--baseline", baseline,
                     "--update-baseline"]) == 0
        assert "accepts 1 flow(s)" in capsys.readouterr().out
        # Gating against the fresh baseline is clean...
        assert main([CHAIN, "--baseline", baseline]) == 0
        assert "1 baselined flow(s) not shown" in capsys.readouterr().out
        # ...but a flow the baseline has never seen still fails.
        assert main([CHAIN, SANITIZED, "--baseline", baseline]) == 1
        out = capsys.readouterr().out
        assert "DF003" in out and "DF001" not in out

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "flow-baseline.json"
        bad.write_text("{}")
        assert main([CHAIN, "--baseline", str(bad)]) == 2
        assert "baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['{"version": 1, "acce', "{}"],
                             ids=["torn", "wrong-shape"])
    def test_update_baseline_leaves_a_malformed_baseline_alone(
            self, tmp_path, capsys, content):
        # Only a missing baseline counts as empty: rewriting a present
        # but unreadable one would drop every reviewed reason in it.
        bad = tmp_path / "flow-baseline.json"
        bad.write_text(content)
        assert main([CHAIN, "--baseline", str(bad),
                     "--update-baseline"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"flow: baseline {bad}")
        assert bad.read_text() == content

    def test_committed_repo_baseline_gates_src_clean(self, capsys):
        assert main(["src", "--baseline", "flow-baseline.json"]) == 0
        capsys.readouterr()


class TestReports:
    def test_json_output_file(self, tmp_path):
        report = tmp_path / "flow.json"
        assert main([CHAIN, "--format", "json",
                     "--output", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["count"] == 1 and payload["baselined"] == 0
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

    def test_repro_flow_baseline_plumbing(self, tmp_path, capsys):
        from repro.cli import main as repro_main
        baseline = str(tmp_path / "flow-baseline.json")
        assert repro_main(["flow", CHAIN, "--baseline", baseline,
                           "--update-baseline"]) == 0
        capsys.readouterr()
        assert repro_main(["flow", CHAIN, "--baseline", baseline]) == 0
        assert "baselined flow(s) not shown" in capsys.readouterr().out

    def test_repro_flow_help_is_the_module_parsers(self, capsys):
        from repro.cli import main as repro_main
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["flow", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()
