"""Differential attribution: diff(A, A) is empty, slowdowns rank first.

The headline contract: inflate one cost-model constant, re-fold the
same span dump, and the diff's top-ranked frame names the stage that
got slower — that attribution is what ``repro regress --explain``
prints when the benchmark gate trips.
"""

import dataclasses
import json
from unittest import mock

import pytest

from repro.android import device
from repro.bench.provenance import build_manifest
from repro.bench.regress import main as regress_main
from repro.profiling import (
    PROFILE_KEY,
    Profile,
    diff_profiles,
    profile_from_spans,
    report_lines,
)
from tests.profiling.test_fold import SESSION


def fold(inference_cpu_ms=100.0):
    costs = dataclasses.replace(device.PROFILE,
                                inference_cpu_ms=inference_cpu_ms)
    with mock.patch.object(device, "PROFILE", costs):
        return profile_from_spans(SESSION)


class TestDiffSemantics:
    def test_diff_of_identical_profiles_is_empty(self):
        diff = diff_profiles(fold(), fold())
        assert diff.empty
        assert diff.frames == ()
        assert diff.delta_cpu_us == 0
        assert "no differing frames" in report_lines(diff)[-1]

    def test_statuses(self):
        base, fresh = Profile(), Profile()
        base.observe(("gone",), cpu_us=10)
        base.observe(("same",), cpu_us=5)
        fresh.observe(("same",), cpu_us=5)
        fresh.observe(("born",), cpu_us=20)
        diff = diff_profiles(base, fresh)
        by_stack = {d.stack: d for d in diff.frames}
        assert set(by_stack) == {"gone", "born"}
        assert by_stack["gone"].status == "vanished"
        assert by_stack["gone"].delta_cpu_us == -10
        assert by_stack["born"].status == "new"
        assert by_stack["born"].rel is None

    def test_ranked_by_absolute_delta_then_stack(self):
        base, fresh = Profile(), Profile()
        for stack, b_us, f_us in [(("a",), 100, 90),
                                  (("b",), 100, 200),
                                  (("c",), 0, 10)]:
            base.observe(stack, cpu_us=b_us)
            fresh.observe(stack, cpu_us=f_us)
        diff = diff_profiles(base, fresh)
        assert [d.stack for d in diff.frames] == ["b", "a", "c"]
        assert [d.stack for d in diff.top(1)] == ["b"]

    def test_count_only_change_still_surfaces(self):
        base, fresh = Profile(), Profile()
        base.observe(("a",), cpu_us=10, count=1)
        fresh.observe(("a",), cpu_us=10, count=2)
        diff = diff_profiles(base, fresh)
        assert [d.stack for d in diff.frames] == ["a"]
        assert diff.frames[0].delta_cpu_us == 0

    def test_to_dict_round_trips_through_json(self):
        diff = diff_profiles(fold(), fold(150.0))
        payload = json.loads(json.dumps(diff.to_dict()))
        assert payload["frames"][0]["status"] == "changed"
        assert payload["delta_cpu_us"] == diff.delta_cpu_us

    def test_dropped_spans_warn_in_report(self):
        base, fresh = fold(), fold(150.0)
        fresh.dropped_spans = 9
        lines = report_lines(diff_profiles(base, fresh))
        assert any("dropped spans" in line and "undercount" in line
                   for line in lines)


class TestInducedSlowdown:
    def test_inflated_inference_is_top_ranked(self):
        # Same spans, 2x inference cost: the regression's cause must be
        # the single top-ranked delta, with the right magnitude.
        diff = diff_profiles(fold(100.0), fold(200.0))
        assert not diff.empty
        top = diff.frames[0]
        assert top.stack == "session;event;analyze;inference"
        assert top.status == "changed"
        assert top.delta_cpu_us == 100_000
        assert top.rel == pytest.approx(1.0)
        # Nothing else moved: the attribution is surgical.
        assert len(diff.frames) == 1
        assert diff.delta_cpu_us == 100_000

    def test_report_names_the_culprit_first(self):
        lines = report_lines(diff_profiles(fold(100.0), fold(200.0)))
        assert lines[-1].endswith("session;event;analyze;inference")
        assert "+100.000 ms" in lines[-1]


def bench_payload(inference_cpu_ms):
    """A minimal BENCH-style payload whose cpu number and embedded
    profile both track the (possibly inflated) inference cost."""
    profile = fold(inference_cpu_ms)
    return {
        "manifest": build_manifest("diff-fixture-v1", 0, {"ct_ms": 200.0}),
        "benchmark": "explain-fixture",
        "cpu_pct": 55.0 * (inference_cpu_ms / 100.0),
        PROFILE_KEY: profile.to_dict(),
    }


class TestRegressExplain:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return str(path)

    def test_explain_attributes_the_regression(self, tmp_path, capsys):
        baseline = self.write(tmp_path, "baseline.json", bench_payload(100.0))
        fresh = self.write(tmp_path, "fresh.json", bench_payload(200.0))
        out = tmp_path / "attribution.json"
        code = regress_main(["--baseline", baseline, "--fresh", fresh,
                             "--explain-out", str(out)])
        assert code == 1  # the gate still gates
        err = capsys.readouterr().err
        assert "attribution (embedded profile diff)" in err
        # Top-ranked line names the inflated stage.
        assert "session;event;analyze;inference" in err
        report = json.loads(out.read_text())
        assert report["violations"]
        top = report["attribution"]["frames"][0]
        assert top["stack"] == "session;event;analyze;inference"
        assert top["delta_cpu_us"] == 100_000

    def test_profile_block_never_enters_the_value_diff(self, tmp_path):
        # Identical numbers, wildly different profiles: still passes.
        base = bench_payload(100.0)
        fresh = bench_payload(100.0)
        fresh[PROFILE_KEY] = Profile().to_dict()
        code = regress_main([
            "--baseline", self.write(tmp_path, "b.json", base),
            "--fresh", self.write(tmp_path, "f.json", fresh)])
        assert code == 0

    def test_explain_without_profile_blocks_degrades(self, tmp_path,
                                                     capsys):
        base = bench_payload(100.0)
        fresh = bench_payload(200.0)
        del base[PROFILE_KEY], fresh[PROFILE_KEY]
        code = regress_main([
            "--baseline", self.write(tmp_path, "b.json", base),
            "--fresh", self.write(tmp_path, "f.json", fresh),
            "--explain"])
        assert code == 1
        assert "cannot attribute" in capsys.readouterr().err

    def test_malformed_profile_block_is_noted_not_fatal(self, tmp_path,
                                                        capsys):
        base = bench_payload(100.0)
        fresh = bench_payload(200.0)
        fresh[PROFILE_KEY] = {"version": 999}
        code = regress_main([
            "--baseline", self.write(tmp_path, "b.json", base),
            "--fresh", self.write(tmp_path, "f.json", fresh),
            "--explain"])
        assert code == 1
        assert "malformed profile block" in capsys.readouterr().err
