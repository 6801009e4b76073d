"""Tests for the screen-fingerprint detection cache."""

from typing import List, Optional

import numpy as np
import pytest

from repro.android import AppSpec, Device, SimulatedApp, UiStep, UiTimeline, View
from repro.android.apps import ScreenState
from repro.android.device import PROFILE, PerfOp
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy
from repro.core.screencache import ScreenFingerprintCache
from repro.geometry import Rect, ScoredBox
from repro.imaging.color import PALETTE


def box(x=10.0, y=10.0) -> ScoredBox:
    return ScoredBox(rect=Rect(x, y, 20, 20), label="UPO", score=0.9)


class TestFingerprint:
    def test_identical_frames_share_a_key(self):
        cache = ScreenFingerprintCache()
        rng = np.random.default_rng(0)
        frame = rng.random((64, 48, 3))
        assert cache.fingerprint(frame) == cache.fingerprint(frame.copy())

    def test_imperceptible_noise_is_invariant(self):
        cache = ScreenFingerprintCache()
        frame = np.full((64, 48, 3), 0.5)
        noisy = frame + np.random.default_rng(1).normal(0, 1e-4, frame.shape)
        assert cache.fingerprint(frame) == cache.fingerprint(noisy)

    def test_layout_change_changes_the_key(self):
        cache = ScreenFingerprintCache()
        frame = np.full((64, 48, 3), 1.0)
        moved = frame.copy()
        moved[10:30, 5:25] = 0.0  # a button-sized dark region
        assert cache.fingerprint(frame) != cache.fingerprint(moved)

    def test_integer_rasters_match_normalized_floats(self):
        cache = ScreenFingerprintCache()
        ints = np.full((32, 32, 3), 128, dtype=np.uint8)
        floats = ints.astype(np.float64) / 255.0
        assert cache.fingerprint(ints) == cache.fingerprint(floats)

    def test_small_frames_are_fingerprintable(self):
        cache = ScreenFingerprintCache()
        assert cache.fingerprint(np.zeros((4, 3, 3)))  # below grid size


def _reference_fingerprint(cache, pixels):
    """The original full-frame integral-image fingerprint."""
    raw = np.asarray(pixels)
    arr = raw.astype(np.float64)
    if np.issubdtype(raw.dtype, np.integer):
        arr /= 255.0
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, _ = arr.shape
    gy, gx = min(cache.grid, h), min(cache.grid, w)
    ys = np.linspace(0, h, gy + 1).astype(np.int64)
    xs = np.linspace(0, w, gx + 1).astype(np.int64)
    integral = arr.cumsum(axis=0).cumsum(axis=1)
    padded = np.zeros((h + 1, w + 1, arr.shape[2]))
    padded[1:, 1:] = integral
    sums = (padded[ys[1:], :, :][:, xs[1:], :]
            - padded[ys[1:], :, :][:, xs[:-1], :]
            - padded[ys[:-1], :, :][:, xs[1:], :]
            + padded[ys[:-1], :, :][:, xs[:-1], :])
    areas = ((ys[1:] - ys[:-1])[:, None]
             * (xs[1:] - xs[:-1])[None, :]).astype(np.float64)
    means = sums / areas[:, :, None]
    return np.clip(np.floor(means * cache.levels + 0.5), 0,
                   cache.levels - 1).astype(np.uint8).tobytes()


def _frame(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(0, 256, size=shape).astype(dtype)
    # Palette-like flat steps plus sensor-like noise, as in real screens.
    return (np.round(rng.random(shape) * 32) / 32
            + rng.normal(0, 1e-3, shape)).astype(dtype)


class TestFingerprintMatchesIntegralImageReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    @pytest.mark.parametrize("shape", [
        (640, 360, 3),   # the simulated phone screen
        (97, 61, 3),     # H and W not multiples of the grid
        (33, 200, 3),
        (7, 40, 3),      # grid > H
        (5, 3, 3),       # grid > H and > W
        (50, 50, 1),
        (101, 45),       # 2-D frame
        (1, 1),
    ])
    def test_bytes_equal(self, dtype, shape):
        frame = _frame(shape, dtype, seed=sum(shape))
        cache = ScreenFingerprintCache()
        assert cache.fingerprint(frame) == _reference_fingerprint(cache, frame)

    @pytest.mark.parametrize("grid,levels", [(1, 2), (3, 7), (16, 32),
                                             (40, 256)])
    def test_other_grids_and_levels(self, grid, levels):
        frame = _frame((123, 77, 3), np.float32, seed=grid)
        cache = ScreenFingerprintCache(grid=grid, levels=levels)
        assert cache.fingerprint(frame) == _reference_fingerprint(cache, frame)

    def test_seeded_random_frames(self):
        rng = np.random.default_rng(99)
        cache = ScreenFingerprintCache()
        for i in range(40):
            shape = (int(rng.integers(1, 90)), int(rng.integers(1, 90)), 3)
            dtype = [np.float32, np.float64, np.uint8][i % 3]
            frame = _frame(shape, dtype, seed=i)
            assert cache.fingerprint(frame) == _reference_fingerprint(cache, frame)

    def test_input_frame_is_not_modified(self):
        frame = _frame((64, 48, 3), np.float32, seed=1)
        before = frame.copy()
        ScreenFingerprintCache().fingerprint(frame)
        assert np.array_equal(frame.view(np.uint32), before.view(np.uint32))


class TestEmptyFrames:
    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (0, 0),
                                       (4, 4, 0), (0, 7)])
    def test_zero_size_frames_are_rejected(self, shape):
        # Every empty frame used to fingerprint to b"", so they shared
        # one cache key and replayed each other's detections.
        cache = ScreenFingerprintCache()
        with pytest.raises(ValueError):
            cache.fingerprint(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2, 3)])
    def test_bad_ranks_are_rejected(self, shape):
        with pytest.raises(ValueError):
            ScreenFingerprintCache().fingerprint(np.zeros(shape))


class TestLru:
    def test_hit_and_miss_counting(self):
        cache = ScreenFingerprintCache(capacity=4)
        frame = np.full((32, 32, 3), 0.5)
        key = cache.fingerprint(frame)
        assert cache.get(key) is None
        cache.put(key, [box()])
        assert cache.get(cache.fingerprint(frame.copy())) == (box(),)
        assert len(cache) == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = ScreenFingerprintCache(capacity=2)
        keys = [bytes([i]) for i in range(3)]
        cache.put(keys[0], [box(1.0)])
        cache.put(keys[1], [box(2.0)])
        assert cache.get(keys[0]) is not None  # 0 freshened, 1 is oldest
        cache.put(keys[2], [box(3.0)])
        assert len(cache) == 2
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None

    def test_cached_entries_are_isolated_from_the_put_list(self):
        cache = ScreenFingerprintCache()
        detections = [box()]
        cache.put(b"k", detections)
        detections.append(box(50.0))  # caller mutates its list afterwards
        assert cache.get(b"k") == (box(),)

    def test_entries_are_immutable_tuples(self):
        # Aliasing regression: entries used to be handed out as lists a
        # caller (or the decorator consuming them) could mutate,
        # poisoning every future hit.  Tuples make that impossible.
        cache = ScreenFingerprintCache()
        cache.put(b"k", [box()])
        out = cache.get(b"k")
        assert isinstance(out, tuple)
        with pytest.raises(AttributeError):
            out.append(box(60.0))
        assert cache.get(b"k") == (box(),)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ScreenFingerprintCache(capacity=0)
        with pytest.raises(ValueError):
            ScreenFingerprintCache(grid=0)
        with pytest.raises(ValueError):
            ScreenFingerprintCache(levels=1)


class CountingDetector:
    """Returns a fixed detection; counts how often the CNN would run."""

    def __init__(self):
        self.calls = 0

    def detect_screen(self, screen_image: np.ndarray,
                      conf_threshold: Optional[float] = None
                      ) -> List[ScoredBox]:
        self.calls += 1
        return [box()]


def run_session(config: DarpaConfig):
    """Three settled screens: white, dark, white again."""
    device = Device(seed=0)

    def screen(color):
        return ScreenState(root=View(bounds=Rect(0, 0, 360, 568),
                                     bg_color=PALETTE[color]), name=color)

    timeline = UiTimeline([
        UiStep(0, screen("white")),
        UiStep(1000, screen("dark_gray")),
        UiStep(2000, screen("white")),
    ])
    app = SimulatedApp(device, AppSpec(package="com.demo", timeline=timeline))
    detector = CountingDetector()
    service = DarpaService(device, detector, config=config,
                           policy=ScreenshotPolicy(consent_given=True))
    service.start()
    app.launch()
    device.clock.advance(4000)
    return device, detector, service


class TestServiceIntegration:
    def test_repeated_screen_skips_the_detector(self):
        device, detector, service = run_session(DarpaConfig(ct_ms=200.0))
        assert service.stats.screens_analyzed == 3
        # The white screen recurs: 2 CNN runs, 1 replay from cache.
        assert detector.calls == 2
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 2
        assert len(service.screen_cache) == 2

    def test_probes_are_billed_hits_skip_inference(self):
        device, detector, service = run_session(DarpaConfig(ct_ms=200.0))
        assert device.perf.count(PerfOp.CACHE_PROBE) == 3
        assert device.perf.count(PerfOp.INFERENCE) == 2
        report = device.perf.report(4000)
        assert report.counts["cache_probe"] == 3

    def test_cache_hit_still_decorates(self):
        device, detector, service = run_session(DarpaConfig(ct_ms=200.0))
        # Every analyzed screen got detections (cached or fresh).
        assert all(r.detections for r in service.stats.records)
        assert service.stats.decorations_drawn > 0

    def test_zero_capacity_disables_cache(self):
        device, detector, service = run_session(
            DarpaConfig(ct_ms=200.0, screen_cache_size=0))
        assert service.screen_cache is None
        assert detector.calls == 3
        assert service.stats.cache_hits == 0
        assert device.perf.count(PerfOp.CACHE_PROBE) == 0

    def test_stub_screenshots_disable_cache(self):
        device, detector, service = run_session(
            DarpaConfig(ct_ms=200.0, stub_screenshots=True))
        assert service.screen_cache is None
        assert detector.calls == 3
        assert device.perf.count(PerfOp.CACHE_PROBE) == 0

    def test_probe_cost_in_overhead_model(self):
        device, _, _ = run_session(DarpaConfig(ct_ms=200.0))
        profile = PROFILE
        with_probes = device.perf.report(60_000)
        probe_cpu_pct = (device.perf.count(PerfOp.CACHE_PROBE)
                         * profile.cache_probe_cpu_ms / 60_000 * 100.0)
        # Probes are billed, but one avoided inference (100 CPU-ms)
        # dwarfs all three probes (2 CPU-ms each).
        assert probe_cpu_pct > 0
        assert probe_cpu_pct < profile.inference_cpu_ms / 60_000 * 100.0
        assert with_probes.counts["cache_probe"] == 3
