"""Tests for the benchmark harness (cache, tables, fleet runner)."""

import numpy as np
import pytest

from repro.bench import format_table
from repro.bench.cache import BenchCache
from repro.bench.experiments import (
    _burst_pause_offsets,
    build_runtime_fleet,
    run_darpa_session,
)


class TestBenchCache:
    def test_store_and_load(self, tmp_path):
        cache = BenchCache(root=tmp_path)
        arrays = {"a": np.arange(5), "b": np.eye(3)}
        cache.store("thing", {"k": 1}, arrays)
        assert cache.has("thing", {"k": 1})
        loaded = cache.load("thing", {"k": 1})
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])

    def test_fingerprint_sensitivity(self):
        assert BenchCache.fingerprint({"a": 1}) != BenchCache.fingerprint({"a": 2})
        assert BenchCache.fingerprint({"a": 1, "b": 2}) == \
            BenchCache.fingerprint({"b": 2, "a": 1})

    def test_get_or_build_builds_once(self, tmp_path):
        cache = BenchCache(root=tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return {"x": np.ones(3)}

        a = cache.get_or_build("m", {"s": 0}, builder)
        b = cache.get_or_build("m", {"s": 0}, builder)
        assert len(calls) == 1
        assert np.array_equal(a["x"], b["x"])

    def test_different_config_different_artifact(self, tmp_path):
        cache = BenchCache(root=tmp_path)
        cache.store("m", {"s": 0}, {"x": np.zeros(1)})
        assert not cache.has("m", {"s": 1})

    def test_corrupt_artifact_is_rebuilt(self, tmp_path):
        cache = BenchCache(root=tmp_path)
        path = cache.store("m", {"s": 0}, {"x": np.arange(4)})
        path.write_bytes(b"PK\x03\x04 not actually a zip")
        rebuilt = cache.get_or_build("m", {"s": 0},
                                     lambda: {"x": np.arange(4) * 2})
        assert np.array_equal(rebuilt["x"], np.arange(4) * 2)
        # The rebuild is persisted, so the next load works again.
        assert np.array_equal(cache.load("m", {"s": 0})["x"], np.arange(4) * 2)

    def test_store_safe_under_concurrent_writers(self, tmp_path):
        """Racing writers never leave a torn .npz behind.

        Each writer stages to a unique temp file and atomically renames
        it over the target, so a reader sees some complete writer's
        arrays — never a mix, never a truncated archive.
        """
        import threading

        cache = BenchCache(root=tmp_path)
        n_writers, n_rounds = 8, 5
        errors = []

        def writer(tag):
            try:
                for _ in range(n_rounds):
                    cache.store("shared", {"k": 0},
                                {"who": np.full(64, tag), "tag": np.array(tag)})
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = cache.load("shared", {"k": 0})
        winner = int(loaded["tag"])
        assert 0 <= winner < n_writers
        assert np.array_equal(loaded["who"], np.full(64, winner))
        # No stray temp files left in the cache directory.
        assert not list(cache.root.glob("*.tmp-*"))


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["name", "value"], [["alpha", 0.12345], ["b", 2]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.123" in text
        assert all(len(l) <= max(len(x) for x in lines) for l in lines)

    def test_handles_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestBurstPause:
    def test_offsets_sorted_and_bounded(self):
        rng = np.random.default_rng(0)
        offsets = _burst_pause_offsets(rng, 8000.0)
        assert offsets == sorted(offsets)
        assert all(0 < o < 8000 for o in offsets)
        assert len(offsets) > 5

    def test_contains_pauses(self):
        rng = np.random.default_rng(1)
        offsets = _burst_pause_offsets(rng, 10_000.0)
        gaps = np.diff(offsets)
        assert gaps.max() > gaps.min() * 1.5  # bursts + pauses, not uniform


class TestFleet:
    @pytest.fixture(scope="class")
    def sessions(self):
        return build_runtime_fleet(n_apps=3, seed=0, duration_ms=20_000.0)

    def test_fleet_shape(self, sessions):
        assert len(sessions) == 3
        for s in sessions:
            assert s.aui_screens, "every session must show AUIs"
            assert s.non_aui_screens
            assert all(state.boxes_of("UPO") for state in s.aui_screens)

    def test_oracle_session_catches_auis(self, sessions):
        result = run_darpa_session(sessions[0], "oracle", ct_ms=200.0,
                                   mode="full", duration_ms=20_000.0)
        assert result.screens_analyzed > 0
        assert result.auis_shown > 0
        assert result.auis_flagged <= result.auis_shown
        assert result.perf.cpu_pct > 55.22  # above the baseline

    def test_baseline_mode_runs_nothing(self, sessions):
        result = run_darpa_session(sessions[0], "oracle", ct_ms=200.0,
                                   mode="baseline", duration_ms=20_000.0)
        assert result.screens_analyzed == 0
        assert result.perf.cpu_pct == pytest.approx(55.22)

    def test_monitor_mode_cheaper_than_full(self, sessions):
        monitor = run_darpa_session(sessions[0], "oracle", ct_ms=200.0,
                                    mode="monitor", duration_ms=20_000.0)
        full = run_darpa_session(sessions[0], "oracle", ct_ms=200.0,
                                 mode="full", duration_ms=20_000.0)
        assert monitor.perf.cpu_pct < full.perf.cpu_pct
        assert monitor.perf.memory_mb < full.perf.memory_mb

    def test_smaller_ct_analyzes_more(self, sessions):
        fast = run_darpa_session(sessions[1], "oracle", ct_ms=50.0,
                                 mode="full", duration_ms=20_000.0)
        slow = run_darpa_session(sessions[1], "oracle", ct_ms=400.0,
                                 mode="full", duration_ms=20_000.0)
        assert fast.screens_analyzed > slow.screens_analyzed

    def test_unknown_mode_rejected(self, sessions):
        with pytest.raises(ValueError):
            run_darpa_session(sessions[0], "oracle", mode="turbo")

    def test_frauddroid_verdicts_collected(self, sessions):
        from repro.baselines import FraudDroidDetector
        result = run_darpa_session(sessions[0], "oracle", ct_ms=200.0,
                                   mode="full", duration_ms=20_000.0,
                                   frauddroid=FraudDroidDetector())
        # One verdict per shown screen that was analyzed at least once.
        assert 0 < len(result.frauddroid_verdicts) <= len(result.screen_verdicts)


class TestArtifactMemos:
    def test_corpus_memoized(self):
        from repro.bench import get_corpus_and_splits
        a = get_corpus_and_splits(seed=0)
        b = get_corpus_and_splits(seed=0)
        assert a[0] is b[0]

    def test_evaluate_requires_screen_images(self):
        from repro.bench import evaluate_detector
        from repro.vision.dataset import DetectionDataset
        import numpy as np
        ds = DetectionDataset(images=np.zeros((1, 3, 8, 8), dtype=np.float32),
                              labels=[[]])

        class Dummy:
            def detect_screen(self, image, conf_threshold=None):
                return []

        with pytest.raises(ValueError):
            evaluate_detector(Dummy(), ds)

    def test_evaluate_calls_a_raising_detector_once(self):
        from repro.bench import evaluate_detector
        from repro.vision.dataset import DetectionDataset
        from tests.android.test_faults import TypeErrorDetector
        ds = DetectionDataset(images=np.zeros((1, 3, 8, 8), dtype=np.float32),
                              labels=[[]], screen_images=[np.zeros((8, 8, 3))],
                              screen_labels=[[]])
        detector = TypeErrorDetector()
        with pytest.raises(TypeError, match="bad tensor dtype"):
            evaluate_detector(detector, ds)
        assert detector.calls == 1
