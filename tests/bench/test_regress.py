"""Tests for repro.bench.regress: the benchmark regression gate."""

import argparse
import json
from pathlib import Path

import pytest

from repro.bench.regress import (
    DEFAULT_RULES,
    Rule,
    compare,
    main,
    parse_rule,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_identical_payloads_pass(self):
        payload = {"rows": [{"cpu_pct": 61.2, "plan": "x"}], "n_apps": 12}
        assert compare(payload, json.loads(json.dumps(payload))) == []

    def test_within_tolerance_passes(self):
        base = {"rows": [{"cpu_pct": 100.0}]}
        fresh = {"rows": [{"cpu_pct": 101.5}]}  # rule *cpu_pct* rel 0.02
        assert compare(base, fresh) == []

    def test_outside_tolerance_fails_both_directions(self):
        base = {"rows": [{"cpu_pct": 100.0}]}
        for drifted in (110.0, 90.0):  # improvement is as suspicious
            violations = compare(base, {"rows": [{"cpu_pct": drifted}]})
            assert len(violations) == 1
            assert violations[0].path == "rows/0/cpu_pct"

    def test_unmatched_numeric_leaf_must_be_exact(self):
        assert compare({"alerts_total": 9}, {"alerts_total": 9}) == []
        violations = compare({"alerts_total": 9}, {"alerts_total": 10})
        assert violations and "exact-match" in violations[0].reason

    def test_schema_drift_is_a_violation(self):
        base = {"a": 1, "b": 2}
        gone = compare(base, {"a": 1})
        assert gone[0].path == "b" and "missing" in gone[0].reason
        extra = compare(base, {"a": 1, "b": 2, "c": 3})
        assert extra[0].path == "c" and "not in baseline" in extra[0].reason
        assert compare({"xs": [1, 2]}, {"xs": [1]})[0].reason \
            == "length changed"
        assert "type changed" in compare({"v": 1}, {"v": "1"})[0].reason

    def test_bool_is_not_a_tolerant_number(self):
        violations = compare({"zero_fault_bit_identical": True},
                             {"zero_fault_bit_identical": False})
        assert len(violations) == 1

    def test_first_matching_rule_wins(self):
        rules = (Rule("rows/*", rel=1.0),) + DEFAULT_RULES
        assert compare({"rows": [{"cpu_pct": 100.0}]},
                       {"rows": [{"cpu_pct": 199.0}]}, rules) == []

    def test_parse_rule(self):
        rule = parse_rule("rows/*/recall=abs:0.05")
        assert rule.pattern == "rows/*/recall" and rule.abs_tol == 0.05
        assert parse_rule("x=rel:0.1").rel == 0.1
        for bad in ("norule", "x=pct:1", "x=rel:nan-ish"):
            with pytest.raises(Exception):
                parse_rule(bad)


class TestMain:
    def test_identical_files_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "base.json", {"rows": [{"cpu_pct": 1.0}]})
        assert main(["--baseline", path, "--fresh", path]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_regression_exits_one_and_lists_violations(self, tmp_path,
                                                       capsys):
        base = write(tmp_path, "base.json", {"alerts_total": 9})
        fresh = write(tmp_path, "fresh.json", {"alerts_total": 12})
        assert main(["--baseline", base, "--fresh", fresh]) == 1
        assert "alerts_total" in capsys.readouterr().err

    def test_extra_rule_can_absorb_drift(self, tmp_path):
        base = write(tmp_path, "base.json", {"alerts_total": 9})
        fresh = write(tmp_path, "fresh.json", {"alerts_total": 12})
        assert main(["--baseline", base, "--fresh", fresh,
                     "--rule", "alerts_total=abs:5"]) == 0

    def test_missing_or_malformed_file_exits_two(self, tmp_path):
        good = write(tmp_path, "base.json", {})
        assert main(["--baseline", str(tmp_path / "nope.json"),
                     "--fresh", good]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--baseline", good, "--fresh", str(bad)]) == 2

    @pytest.mark.parametrize("bad", ["a=rel:-0.1", "a=abs:-1", "a=rel:nan",
                                     "a=abs:inf", "a=rel:-inf"])
    def test_negative_or_non_finite_tolerance_is_a_usage_error(self, bad,
                                                               tmp_path):
        # max(0, x) would read such a rule as exact match.
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            parse_rule(bad)
        path = write(tmp_path, "base.json", {"a": 1.0})
        with pytest.raises(SystemExit) as exit_info:
            main(["--baseline", path, "--fresh", path, "--rule", bad])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("payload", [[1, 2], 3, "x", None])
    def test_non_object_payload_exits_two(self, tmp_path, payload, capsys):
        good = write(tmp_path, "base.json", {"a": 1})
        odd = write(tmp_path, "odd.json", payload)
        assert main(["--baseline", odd, "--fresh", good]) == 2
        assert "expected a JSON object" in capsys.readouterr().err
        assert main(["--baseline", good, "--fresh", odd]) == 2

    def test_committed_slo_baseline_self_compares_clean(self):
        baseline = REPO_ROOT / "BENCH_slo.json"
        assert baseline.exists(), "BENCH_slo.json must be committed"
        assert main(["--baseline", str(baseline),
                     "--fresh", str(baseline), "--quiet"]) == 0
