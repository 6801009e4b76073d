"""Tests of the host benchmark itself (``python -m pytest hostbench``):
span self-time arithmetic, patch hygiene, digest stability, detector
loading, and a minimum-size run of every workload."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import spans
import workloads
from repro.bench.cache import BenchCache
from spans import Span, SpanRecorder

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(span_id, parent, layer, thread, start, end, wait=False):
    return Span(span_id=span_id, parent=parent, layer=layer, name=layer,
                thread=thread, start_ms=start, end_ms=end, wait=wait)


class TestSelfTime:
    # A lockstep coalesced batch of two sessions.  Main thread: the
    # coordinator's run_batch [0, 100] with one shared forward [25, 35].
    # Session A (thread 2) renders [5, 15], parks [15, 40], finishes its
    # own work [40, 55].  Session B (thread 3) renders [15, 25], parks
    # [25, 55], finishes [55, 70].
    TREE = [
        _span(1, None, "core.daemon", 1, 0, 100),
        _span(2, 1, "vision.yolo", 1, 25, 35),
        _span(3, 1, "bench.experiments", 2, 5, 55),
        _span(4, 3, "android.renderer", 2, 5, 15),
        _span(5, 3, "core.daemon", 2, 15, 40, wait=True),
        _span(6, 1, "bench.experiments", 3, 15, 70),
        _span(7, 6, "android.renderer", 3, 15, 25),
        _span(8, 6, "core.daemon", 3, 25, 55, wait=True),
    ]

    def test_self_time_subtracts_the_union_of_children_across_threads(self):
        own = spans.self_times(self.TREE)
        assert own == {1: 35, 2: 10, 3: 15, 4: 10, 5: 25, 6: 15, 7: 10, 8: 30}

    def test_layer_metrics_skip_wait_spans_and_never_double_count(self):
        layers = ("core.daemon", "vision.yolo", "bench.experiments",
                  "android.renderer")
        m = spans.layer_metrics(self.TREE, layers)
        assert m["core.daemon.calls"] == 1
        assert m["core.daemon.self_ms"] == 35
        assert m["bench.experiments.self_ms"] == 30
        assert m["android.renderer.calls"] == 2
        assert m["android.renderer.ms_p50"] == 10
        booked = sum(m[f"{layer}.self_ms"] for layer in layers)
        # [35, 40] is coordinator time while both sessions are parked:
        # it is covered by wait spans, so it is booked nowhere.
        assert booked == 95

    def test_thread_roots_are_adopted_by_the_open_coordinator(self):
        recorder = SpanRecorder()
        batch = recorder.start("core.daemon", "run_batch", adopts_threads=True)
        parents = []

        def session():
            span = recorder.start("bench.experiments", "run_darpa_session")
            recorder.end(span)
            parents.append(span.parent)

        thread = threading.Thread(target=session)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        recorder.end(batch)
        thread = threading.Thread(target=session)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert parents == [batch.span_id, None]

    def test_percentiles_are_nearest_rank(self):
        tree = [_span(i, None, "geometry.nms", 1, 0, float(i))
                for i in range(1, 101)]
        m = spans.layer_metrics(tree, ("geometry.nms",))
        assert (m["geometry.nms.ms_p50"], m["geometry.nms.ms_p99"]) == (50, 99)


@pytest.fixture(scope="module")
def oracle_state():
    workload = workloads.CtSweepOracle()
    state = workload.setup()
    yield workload, state
    workload.close(state)


class TestPatches:
    def test_every_patched_name_is_restored_after_a_traced_run(
            self, oracle_state):
        workload, state = oracle_state
        before = spans.snapshot()
        recorder = SpanRecorder()
        with spans.patched(recorder):
            during = spans.snapshot()
            assert all(during[k] is not v for k, v in before.items())
            workload.run_unit(state, (200.0, 0))
        after = spans.snapshot()
        assert all(after[k] is v for k, v in before.items())
        assert {s.layer for s in recorder.spans} >= {
            "bench.experiments", "core.debounce", "core.decorator"}

    def test_patches_are_restored_when_the_run_raises(self):
        before = spans.snapshot()
        with pytest.raises(RuntimeError):
            with spans.patched(SpanRecorder()):
                raise RuntimeError("boom")
        after = spans.snapshot()
        assert all(after[k] is v for k, v in before.items())

    def test_traced_unit_reproduces_the_untraced_digest(self, oracle_state):
        workload, state = oracle_state
        plain = workload.run_unit(state, (50.0, 7))
        with spans.patched(SpanRecorder()):
            traced = workload.run_unit(state, (50.0, 7))
        assert traced.digests == plain.digests


class TestDigests:
    def test_digests_repeat_and_match_the_committed_ones(self, oracle_state):
        committed = json.loads(run.DIGESTS.read_text())
        workload, state = oracle_state
        first = workload.run_unit(state, (300.0, 4))
        second = workload.run_unit(state, (300.0, 4))
        assert first.digests == second.digests == {
            "300/4": committed["ct_sweep_oracle"]["300/4"]}

    def test_committed_digests_cover_every_unit_of_the_default_pass(
            self, oracle_state):
        committed = json.loads(run.DIGESTS.read_text())
        workload, state = oracle_state
        keys = {f"{int(ct)}/{i}" for ct, i in workload.order(state, 0)}
        assert keys == set(committed["ct_sweep_oracle"])
        assert set(committed["fleet_cnn"]) == {
            str(i) for i in workloads.CNN_POOL}


class TestDetectorLoad:
    @pytest.fixture(autouse=True)
    def never_build(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("set-up must never build the detector")
        monkeypatch.setattr(BenchCache, "get_or_build", refuse)

    def test_loads_the_tracked_file_whatever_the_cache_env_says(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        port = workloads.load_detector()
        assert port.config.quantization == "fp16"
        assert sorted(tmp_path.iterdir()) == []

    def test_a_missing_file_fails_set_up(self, tmp_path):
        with pytest.raises(workloads.SetupError):
            workloads.load_detector(tmp_path)

    def test_a_changed_file_fails_set_up(self, tmp_path):
        blob = bytearray(
            (ROOT / ".bench_cache" / workloads.MODEL_FILE).read_bytes())
        blob[len(blob) // 2] ^= 1
        (tmp_path / ".bench_cache").mkdir()
        (tmp_path / ".bench_cache" / workloads.MODEL_FILE).write_bytes(blob)
        with pytest.raises(workloads.SetupError):
            workloads.load_detector(tmp_path)


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == run.per_layer_spec(spans.LAYERS)


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "hostbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("fleet_cnn", 0), ("ct_sweep_oracle", 0), ("daemon_cnn", 0),
    ("static_eval", 0), ("ct_sweep_oracle", 1), ("daemon_cnn", 1)])
def test_minimum_size_run(workload, trace):
    proc = _cli(ROOT, "--workload", workload, "--seed", "0",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert not sorted(ROOT.glob(".hostbench-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "fleet_cnn", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
