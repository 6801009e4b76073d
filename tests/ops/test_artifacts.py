"""Unit tests for the run-directory loader (:mod:`repro.ops.artifacts`)."""

import json
import os
import shutil

import pytest

from repro.ops.artifacts import RunDirectoryError, load_run
from repro.ops.routes import RouteError, resolve

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, "fixtures", "run")


def write(path, text):
    with open(path, "w") as fp:
        fp.write(text)


SPAN = {"name": "session", "span_id": 1, "parent_id": None,
        "trace_id": "t0", "start_ms": 0.0, "end_ms": 100.0,
        "attributes": {}, "ops": {}}
CHILD = {"name": "capture", "span_id": 2, "parent_id": 1,
         "trace_id": "t0", "start_ms": 10.0, "end_ms": 20.0,
         "attributes": {}, "ops": {"screenshot": 1}}
GRANDCHILD = {"name": "encode", "span_id": 3, "parent_id": 2,
              "trace_id": "t0", "start_ms": 12.0, "end_ms": 15.0,
              "attributes": {}, "ops": {}}


def write_trace(run_dir, spans, session=0, name="trace.jsonl"):
    lines = [json.dumps({"session": session, **span}) for span in spans]
    write(os.path.join(run_dir, name), "".join(l + "\n" for l in lines))


class TestErrorPaths:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(RunDirectoryError, match="cannot list"):
            load_run(str(tmp_path / "nope"))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(RunDirectoryError, match="no run artifacts"):
            load_run(str(tmp_path))

    def test_unrelated_files_only(self, tmp_path):
        write(str(tmp_path / "README.txt"), "not a run\n")
        with pytest.raises(RunDirectoryError, match="no run artifacts"):
            load_run(str(tmp_path))

    def test_malformed_trace_line_names_file_and_line(self, tmp_path):
        write(str(tmp_path / "trace.jsonl"),
              json.dumps({"session": 0, **SPAN}) + "\n{oops\n")
        with pytest.raises(RunDirectoryError, match=r"trace\.jsonl:2"):
            load_run(str(tmp_path))

    def test_non_object_trace_line(self, tmp_path):
        write(str(tmp_path / "trace.jsonl"), "[1,2,3]\n")
        with pytest.raises(RunDirectoryError, match="object per line"):
            load_run(str(tmp_path))

    def test_malformed_telemetry_json(self, tmp_path):
        write(str(tmp_path / "telemetry.json"), "{broken")
        with pytest.raises(RunDirectoryError, match="malformed JSON"):
            load_run(str(tmp_path))

    def test_malformed_daemon_json(self, tmp_path):
        write_trace(str(tmp_path), [SPAN])
        write(str(tmp_path / "daemon.json"), "nope{")
        with pytest.raises(RunDirectoryError, match=r"daemon\.json"):
            load_run(str(tmp_path))

    @pytest.mark.parametrize("name, damage", [
        ("shard-000003.trace.jsonl", "directory"),
        ("shard-000003.telemetry.json", b"[]\n"),
        ("shard-000003.profile.json", b"[]\n"),
        ("daemon.json", b'{"version": "\xff\xfe"}\n'),
        ("shard-000003.trace.jsonl", b'{"session": 3, "name": "\xff"}\n'),
        ("shard-000003.trace.jsonl", json.dumps(
            {"session": 3, **{k: v for k, v in SPAN.items()
                              if k != "span_id"}}).encode() + b"\n"),
        ("shard-000003.trace.jsonl", json.dumps(
            {"session": 3, **SPAN, "ops": {"teleport": 1}}).encode()
            + b"\n"),
        ("shard-000003.trace.jsonl", json.dumps(
            {"session": 3, **SPAN, "parent_id": 1}).encode() + b"\n"),
        ("shard-000003.metrics.jsonl", b'{"session": 3, "metrics": []}\n'),
        ("shard-000003.telemetry.json", b'{"version": 1}\n'),
    ], ids=["trace-part-is-dir", "telemetry-part-is-list",
            "profile-part-is-list", "daemon-json-not-utf8",
            "trace-part-not-utf8", "span-without-span-id",
            "span-with-unknown-op", "span-is-own-parent",
            "metrics-not-an-object", "telemetry-missing-fields"])
    def test_damaged_fixture_artifact(self, tmp_path, name, damage):
        # Every malformed input surfaces as RunDirectoryError (so `repro
        # dash` exits 2 with a reason), never as a raw exception.
        run_dir = tmp_path / "run"
        shutil.copytree(RUN_DIR, run_dir)
        target = run_dir / name
        target.unlink()
        if damage == "directory":
            target.mkdir()
        else:
            target.write_bytes(damage)
        with pytest.raises(RunDirectoryError):
            load_run(str(run_dir))


class TestMinimalDirectories:
    def test_bare_trace_loads_and_rebuilds_telemetry(self, tmp_path):
        write_trace(str(tmp_path), [SPAN, CHILD])
        model = load_run(str(tmp_path))
        assert model.sessions == (0,)
        # Telemetry-free directory: the fleet snapshot is rebuilt from
        # the spans so the overview still has sketches to project.
        assert model.fleet.sessions == 1
        assert model.daemon is None and model.drain is None

    def test_daemon_only_directory_loads(self, tmp_path):
        write(str(tmp_path / "daemon.json"),
              json.dumps({"version": 1, "sessions": [], "rejections": [],
                          "batches": []}) + "\n")
        model = load_run(str(tmp_path))
        assert model.sessions == ()
        assert model.daemon is not None
        assert resolve(model, "/api/daemon")["available"] is True

    def test_precomputed_slo_json_wins_over_derivation(self, tmp_path):
        write_trace(str(tmp_path), [SPAN])
        canned = {"slos": [], "alerts": [], "all_met": False}
        write(str(tmp_path / "slo.json"), json.dumps(canned) + "\n")
        model = load_run(str(tmp_path))
        assert model.slo == canned


class TestTraceProjection:
    def test_depth_follows_parent_chain(self, tmp_path):
        write_trace(str(tmp_path), [GRANDCHILD, CHILD, SPAN])
        trace = load_run(str(tmp_path)).traces[0]
        by_name = {s.name: s for s in trace.spans}
        assert by_name["session"].depth == 0
        assert by_name["capture"].depth == 1
        assert by_name["encode"].depth == 2

    def test_spans_sorted_by_start_then_span_id(self, tmp_path):
        write_trace(str(tmp_path), [GRANDCHILD, CHILD, SPAN])
        trace = load_run(str(tmp_path)).traces[0]
        keys = [(s.start_ms, s.span_id) for s in trace.spans]
        assert keys == sorted(keys)

    def test_session_root_defines_trace_bounds(self, tmp_path):
        write_trace(str(tmp_path), [CHILD, SPAN])
        trace = load_run(str(tmp_path)).traces[0]
        assert trace.trace_id == "t0"
        assert (trace.start_ms, trace.end_ms) == (0.0, 100.0)

    def test_cpu_ms_prices_ops_through_the_cost_model(self, tmp_path):
        write_trace(str(tmp_path), [SPAN, CHILD])
        by_name = {s.name: s
                   for s in load_run(str(tmp_path)).traces[0].spans}
        assert by_name["capture"].cpu_ms > 0.0   # one screenshot op
        assert by_name["session"].cpu_ms == 0.0  # no ops of its own

    def test_span_ids_resolve_per_session(self, tmp_path):
        write_trace(str(tmp_path), [SPAN, CHILD])
        model = load_run(str(tmp_path))
        assert model.span_ids(0) == frozenset({1, 2})
        assert model.span_ids(99) == frozenset()


class TestFixtureModel:
    def test_budget_is_ct_plus_stage_costs_plus_slack(self):
        model = load_run(RUN_DIR, ct_ms=200.0)
        assert model.reaction_budget_ms == pytest.approx(355.0)
        other = load_run(RUN_DIR, ct_ms=100.0)
        assert other.reaction_budget_ms == pytest.approx(255.0)

    def test_unknown_routes_404(self):
        model = load_run(RUN_DIR)
        for path in ("/api/nope", "/api/traces/999", "/api/traces/abc",
                     "/api/quantiles/bogus"):
            with pytest.raises(RouteError) as err:
                resolve(model, path)
            assert err.value.status == 404
