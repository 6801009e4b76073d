"""End-to-end tests for the resilient DARPA serving path.

Each test injects one class of fault into a small simulated session and
asserts the pipeline degrades the way :mod:`repro.core.pipeline`
promises: retries on the clock, breaker trips, heuristic fallback,
watchdog skips — and bit-identical behavior when no fault fires.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.android import AppSpec, Device, SimulatedApp, UiStep, UiTimeline, View
from repro.android.apps import ScreenState
from repro.android.device import PerfOp
from repro.android.faults import FaultPlan, FaultyDevice
from repro.core import BreakerState, DarpaConfig, DarpaService, ScreenshotPolicy
from repro.geometry import Rect, ScoredBox
from repro.imaging.color import PALETTE


def box(score=0.9) -> ScoredBox:
    return ScoredBox(rect=Rect(10.0, 10.0, 20, 20), label="UPO", score=score)


def screen(color: str) -> ScreenState:
    return ScreenState(root=View(bounds=Rect(0, 0, 360, 568),
                                 bg_color=PALETTE[color]), name=color)


def launch(device, colors, period_ms=1000):
    timeline = UiTimeline([UiStep(i * period_ms, screen(c))
                           for i, c in enumerate(colors)])
    app = SimulatedApp(device, AppSpec(package="com.demo", timeline=timeline))
    app.launch()
    return app


def service_for(device, detector, **config_kwargs) -> DarpaService:
    config = DarpaConfig(ct_ms=200.0, **config_kwargs)
    svc = DarpaService(device, detector, config=config,
                       policy=ScreenshotPolicy(consent_given=True))
    svc.start()
    return svc


class CountingDetector:
    def __init__(self, detections=None):
        self.calls = 0
        self.detections = [box()] if detections is None else detections

    def detect_screen(self, screen_image: np.ndarray,
                      conf_threshold: Optional[float] = None
                      ) -> List[ScoredBox]:
        self.calls += 1
        return list(self.detections)


class CrashingDetector(CountingDetector):
    """Raises on the first ``crashes`` calls, then behaves."""

    def __init__(self, crashes=10**9):
        super().__init__()
        self.crashes = crashes

    def detect_screen(self, screen_image, conf_threshold=None):
        self.calls += 1
        if self.calls <= self.crashes:
            raise RuntimeError("native inference aborted")
        return [box()]


class SlowDetector(CountingDetector):
    """Reports a fixed simulated inference latency."""

    def __init__(self, latency_ms):
        super().__init__()
        self.last_detect_ms = latency_ms


class ScriptedRng:
    """Stands in for the injector's RNG with a fixed decision script."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 1.0


class TestScreenshotRetry:
    def test_permanent_failure_exhausts_retries_without_crashing(self):
        device = FaultyDevice(plan=FaultPlan(screenshot_failure_rate=1.0),
                              seed=0)
        detector = CountingDetector()
        svc = service_for(device, detector)
        launch(device, ["white"])
        device.clock.advance(5000)
        assert svc.stats.screens_analyzed == 0
        assert detector.calls == 0
        # One initial attempt + (max_attempts - 1) backoff retries.
        assert svc.stats.screenshot_failures == svc.retry_policy.max_attempts
        assert svc.stats.retries == svc.retry_policy.max_attempts - 1

    def test_transient_failure_recovers_on_retry(self):
        device = FaultyDevice(plan=FaultPlan(screenshot_failure_rate=0.5),
                              seed=0)
        # First capture fails (0.4 < 0.5), the retry succeeds (0.9).
        device.faults.rng = ScriptedRng([0.4, 0.9])
        detector = CountingDetector()
        svc = service_for(device, detector)
        launch(device, ["white"])
        device.clock.advance(5000)
        assert svc.stats.screenshot_failures == 1
        assert svc.stats.retries == 1
        assert svc.stats.screens_analyzed == 1
        assert detector.calls == 1
        assert not svc.stats.records[0].degraded

    def test_retry_waits_out_the_backoff(self):
        device = FaultyDevice(plan=FaultPlan(screenshot_failure_rate=0.5),
                              seed=0)
        device.faults.rng = ScriptedRng([0.4, 0.9])
        svc = service_for(device, CountingDetector())
        launch(device, ["white"])
        device.clock.advance(210)  # settled + first (failed) attempt
        assert svc.stats.screenshot_failures == 1
        assert svc.stats.screens_analyzed == 0
        # Backoff for attempt 1 is base * (1 + jitter) <= 62.5ms.
        device.clock.advance(63)
        assert svc.stats.screens_analyzed == 1

    def test_new_settled_screen_cancels_pending_retry(self):
        device = FaultyDevice(plan=FaultPlan(screenshot_failure_rate=0.5),
                              seed=0)
        # Screen 1 keeps failing; screen 2's capture succeeds.
        device.faults.rng = ScriptedRng([0.4, 0.9])
        svc = service_for(device, CountingDetector(),
                          retry_base_delay_ms=2000.0,
                          retry_max_delay_ms=2000.0, retry_jitter_frac=0.0)
        launch(device, ["white", "dark_gray"], period_ms=1000)
        # Screen 1 settles at 200ms and fails; its retry is due at
        # 2200ms — but screen 2 settles at 1200ms first.
        device.clock.advance(4000)
        assert svc.stats.screenshot_failures == 1  # retry never ran
        assert svc.stats.screens_analyzed == 1

    def test_stop_cancels_pending_retry(self):
        device = FaultyDevice(plan=FaultPlan(screenshot_failure_rate=1.0),
                              seed=0)
        svc = service_for(device, CountingDetector())
        launch(device, ["white"])
        device.clock.advance(210)
        assert svc.stats.screenshot_failures == 1
        svc.stop()
        device.clock.advance(10_000)
        assert svc.stats.screenshot_failures == 1  # no zombie retries


class TestBreakerAndFallback:
    def test_breaker_opens_and_degrades_to_heuristic(self):
        device = FaultyDevice(plan=FaultPlan(), seed=0)
        detector = CrashingDetector()
        svc = service_for(device, detector, breaker_failure_threshold=2,
                          breaker_cooldown_ms=10**9)
        launch(device, ["white", "dark_gray", "white", "dark_gray"])
        device.clock.advance(5000)
        assert svc.stats.screens_analyzed == 4
        assert svc.stats.detector_failures == 2
        assert svc.stats.breaker_opens == 1
        assert svc.breaker.state is BreakerState.OPEN
        # While open the CNN is never invoked again.
        assert detector.calls == 2
        # Every screen was still served, by the metadata heuristic.
        assert svc.stats.fallback_detections == 4
        assert all(r.degraded for r in svc.stats.records)
        assert device.perf.count(PerfOp.FALLBACK_INFERENCE) == 4
        assert device.perf.count(PerfOp.INFERENCE) == 0

    def test_half_open_probe_recovers_and_skips_stale_cache(self):
        device = Device(seed=0)
        detector = CrashingDetector(crashes=1)
        svc = service_for(device, detector, breaker_failure_threshold=1,
                          breaker_cooldown_ms=300.0)
        # The same screen twice: the degraded screen-1 verdict must NOT
        # have been cached, so screen 2 re-runs the (recovered) CNN.
        launch(device, ["white", "white"])
        device.clock.advance(4000)
        assert svc.stats.breaker_opens == 1
        assert svc.breaker.state is BreakerState.CLOSED
        assert detector.calls == 2  # crash, then the half-open probe
        assert svc.stats.fallback_detections == 1
        assert svc.stats.cache_hits == 0
        degraded = [r.degraded for r in svc.stats.records]
        assert degraded == [True, False]

    def test_fallback_disabled_yields_empty_degraded_records(self):
        device = Device(seed=0)
        svc = service_for(device, CrashingDetector(),
                          breaker_failure_threshold=1,
                          fallback_to_heuristic=False)
        launch(device, ["white"])
        device.clock.advance(2000)
        assert svc.fallback_detector is None
        assert svc.stats.screens_analyzed == 1
        assert svc.stats.fallback_detections == 0
        record = svc.stats.records[0]
        assert record.degraded and not list(record.detections)


class TestWatchdogDeadline:
    def test_over_budget_analyses_are_abandoned(self):
        device = Device(seed=0)
        detector = SlowDetector(latency_ms=500.0)
        svc = service_for(device, detector, deadline_ms=250.0,
                          breaker_failure_threshold=100)
        launch(device, ["white", "dark_gray", "white"])
        device.clock.advance(4000)
        assert svc.stats.deadline_skips == 3
        assert svc.stats.screens_analyzed == 0
        assert svc.stats.records == []
        # Skipped analyses must not poison the cache either.
        assert svc.stats.cache_hits == 0

    def test_deadline_overruns_feed_the_breaker(self):
        device = Device(seed=0)
        detector = SlowDetector(latency_ms=500.0)
        svc = service_for(device, detector, deadline_ms=250.0,
                          breaker_failure_threshold=2,
                          breaker_cooldown_ms=10**9)
        launch(device, ["white", "dark_gray", "white"])
        device.clock.advance(4000)
        assert svc.stats.deadline_skips == 2
        assert svc.stats.breaker_opens == 1
        # Screen 3 skipped the slow CNN entirely and used the heuristic.
        assert svc.stats.fallback_detections == 1
        assert detector.calls == 2

    def test_fast_inference_passes_the_deadline(self):
        device = Device(seed=0)
        detector = SlowDetector(latency_ms=100.0)
        svc = service_for(device, detector, deadline_ms=250.0)
        launch(device, ["white"])
        device.clock.advance(2000)
        assert svc.stats.deadline_skips == 0
        assert svc.stats.screens_analyzed == 1


class TestOverlayRejection:
    def test_rejected_mounts_are_absorbed(self):
        device = FaultyDevice(plan=FaultPlan(overlay_rejection_rate=1.0),
                              seed=0)
        svc = service_for(device, CountingDetector())
        launch(device, ["white"])
        device.clock.advance(2000)
        # Analysis completed and the screen was flagged; only the
        # decoration mounts failed.
        assert svc.stats.screens_analyzed == 1
        assert svc.stats.auis_flagged == 1
        assert svc.stats.decorations_drawn == 0
        assert svc.stats.overlay_rejections >= 1
        assert device.window_manager.overlays() == []


class TestZeroFaultParity:
    def run_one(self, device):
        detector = CountingDetector()
        svc = service_for(device, detector)
        launch(device, ["white", "dark_gray", "white"])
        device.clock.advance(4000)
        return svc, detector

    def test_null_plan_is_bit_identical_to_plain_device(self):
        plain_svc, plain_det = self.run_one(Device(seed=0))
        null_svc, null_det = self.run_one(
            FaultyDevice(plan=FaultPlan(), seed=0))
        assert plain_svc.stats == null_svc.stats
        assert plain_det.calls == null_det.calls
        for op in PerfOp:
            assert (plain_svc.device.perf.count(op)
                    == null_svc.device.perf.count(op)), op
        assert all(v == 0 for v in null_svc.device.faults.counts.values())

    def test_resilience_counters_zero_on_clean_run(self):
        svc, _ = self.run_one(Device(seed=0))
        stats = svc.stats
        assert (stats.screenshot_failures, stats.retries,
                stats.detector_failures, stats.breaker_opens,
                stats.fallback_detections, stats.deadline_skips,
                stats.overlay_rejections) == (0, 0, 0, 0, 0, 0, 0)
        assert not any(r.degraded for r in stats.records)
