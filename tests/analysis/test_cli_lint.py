"""CLI exit codes and report plumbing, mirroring tests/test_cli.py.

Conventions under test (same as ``repro.bench.regress``): 0 = clean,
1 = findings, 2 = usage error (missing path / unknown rule / bad
config), argparse's own usage failures also exit 2.
"""

import json
import os
import random

import pytest

from repro.analysis.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DIRTY = os.path.join(FIXTURES, "dirty")
CLEAN = os.path.join(FIXTURES, "clean")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.paths == ["src"]
        assert args.format == "text" and args.rules is None

    def test_bad_format_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--format", "xml"])
        assert excinfo.value.code == 2


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([CLEAN]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_final_src_tree_exits_zero(self, capsys):
        # The acceptance bar: the repo lints itself clean.
        assert main(["src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_dirty_tree_exits_one_with_all_rules(self, capsys):
        assert main([DIRTY]) == 1
        out = capsys.readouterr().out
        for rule in ("DL001", "DL002", "DL003", "DL004", "DL005", "DL006",
                     "DL007", "DL008"):
            assert rule in out
        assert "8 finding(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        rc = main([str(tmp_path / "nope")])
        assert rc == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--rules", "DL999", CLEAN]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "pyproject.toml"
        bad.write_text("[tool.darpalint]\nsurprise = true\n")
        assert main(["--config", str(bad), CLEAN]) == 2
        assert "bad config" in capsys.readouterr().err


class TestListRules:
    def test_lists_every_rule_and_exits_zero(self, capsys):
        assert main(["--list-rules", "--no-config"]) == 0
        out = capsys.readouterr().out
        for rule in ("DL001", "DL002", "DL003", "DL004", "DL005", "DL006",
                     "DL007", "DL008"):
            assert rule in out
        # Without config nothing is allowlisted.
        assert "allowlisted for" not in out
        assert "enabled everywhere" in out

    def test_shows_allowlisted_paths_from_pyproject(self, capsys):
        # The repo's own [tool.darpalint] allowlists DL001 for the
        # wallclock module; --list-rules must surface that state.
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "allowlisted for: repro/wallclock.py" in out

    def test_repro_cli_plumbs_list_rules(self, capsys):
        from repro.cli import main as repro_main
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DL008" in out and "unsorted filesystem enumeration" in out


class TestReports:
    def test_rules_filter_limits_findings(self, capsys):
        assert main(["--rules", "DL001", DIRTY]) == 1
        out = capsys.readouterr().out
        assert "DL001" in out and "DL006" not in out
        assert "1 finding(s)" in out

    def test_json_output_file(self, tmp_path):
        report = tmp_path / "findings.json"
        assert main(["--format", "json", "--output", str(report),
                     DIRTY]) == 1
        payload = json.loads(report.read_text())
        assert payload["count"] == 8
        assert payload["by_rule"]["DL003"] == 1

    def test_json_bytes_identical_for_shuffled_paths(self, tmp_path):
        # The acceptance bar: byte-identical output across two runs
        # with shuffled input path order.
        trees = [os.path.join(FIXTURES, name)
                 for name in ("dirty", "clean", "suppressed", "allowlisted")]
        shuffled = list(trees)
        random.Random(3).shuffle(shuffled)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--format", "json", "--no-config",
                     "--output", str(a)] + trees) == 1
        assert main(["--format", "json", "--no-config",
                     "--output", str(b)] + shuffled) == 1
        assert a.read_bytes() == b.read_bytes()


class TestReproCliDelegation:
    def test_repro_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main
        assert repro_main(["lint", CLEAN]) == 0
        assert "clean" in capsys.readouterr().out
        assert repro_main(["lint", DIRTY]) == 1
        assert "8 finding(s)" in capsys.readouterr().out

    def test_repro_lint_missing_path(self, tmp_path, capsys):
        from repro.cli import main as repro_main
        assert repro_main(["lint", str(tmp_path / "gone")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_repro_lint_help_is_the_module_parsers(self, capsys):
        from repro.cli import main as repro_main
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["lint", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()
