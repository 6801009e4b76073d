"""Tests for the deterministic fault-injection substrate."""

import numpy as np
import pytest

from repro.android import (
    AccessibilityEventType,
    AccessibilityService,
    Device,
    View,
)
from repro.android.faults import (
    DetectorCrashError,
    FaultInjector,
    FaultPlan,
    FaultyDetector,
    FaultyDevice,
    OverlayRejectedError,
    ScreenshotFailedError,
    ScreenshotThrottledError,
)
from repro.android.device import PerfOp
from repro.android.events import TYPES_ALL_MASK
from repro.android.window import LayoutParams
from repro.geometry import Rect


class TestFaultPlan:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null

    def test_any_rate_makes_it_non_null(self):
        assert not FaultPlan(screenshot_failure_rate=0.1).is_null
        assert not FaultPlan(screenshot_min_interval_ms=100.0).is_null
        assert not FaultPlan(event_storm_rate=0.5).is_null

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(screenshot_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(event_drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(event_storm_size=0)
        with pytest.raises(ValueError):
            FaultPlan(screenshot_min_interval_ms=-1.0)


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=7, screenshot_failure_rate=0.5,
                         event_drop_rate=0.3, detector_failure_rate=0.4)
        seq = []
        for _ in range(2):
            device = Device(seed=0)
            injector = FaultInjector(plan, device.clock)
            run = []
            for _ in range(50):
                try:
                    injector.check_screenshot_failure()
                    run.append("ok")
                except ScreenshotFailedError:
                    run.append("fail")
                run.append(injector.event_copies())
            seq.append(run)
        assert seq[0] == seq[1]

    def test_null_plan_draws_nothing(self):
        device = Device(seed=0)
        injector = FaultInjector(FaultPlan(), device.clock)
        for _ in range(20):
            injector.check_screenshot_throttle()
            injector.check_screenshot_failure()
            injector.check_overlay()
            injector.check_detector()
            assert injector.event_copies() == 1
        assert all(v == 0 for v in injector.counts.values())
        # No draw was consumed: the stream starts where a fresh one does.
        fresh = np.random.default_rng(0)
        assert float(injector.rng.random()) == float(fresh.random())


def app_device(plan=None):
    device = FaultyDevice(plan=plan, seed=0) if plan is not None else Device(seed=0)
    root = View(bounds=Rect(0, 0, 360, 568))
    device.window_manager.attach_app_window(root, "com.demo")
    return device


class TestFaultyDeviceEvents:
    def deliveries(self, plan, n=30):
        device = FaultyDevice(plan=plan, seed=0)
        got = []
        device.register_event_listener(TYPES_ALL_MASK, got.append)
        for _ in range(n):
            device.emit_event(
                AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        return device, got

    def test_drop_all(self):
        device, got = self.deliveries(FaultPlan(event_drop_rate=1.0))
        assert got == []
        assert device.faults.counts["events_dropped"] == 30
        # The OS still logged the UI change; only delivery failed.
        assert len(device.event_log) == 30

    def test_duplicate_all(self):
        device, got = self.deliveries(FaultPlan(event_duplicate_rate=1.0))
        assert len(got) == 60
        assert device.faults.counts["events_duplicated"] == 30

    def test_storm(self):
        plan = FaultPlan(event_storm_rate=1.0, event_storm_size=8)
        device, got = self.deliveries(plan, n=5)
        assert len(got) == 40
        assert device.faults.counts["event_storms"] == 5

    def test_null_plan_matches_plain_device(self):
        faulty, got_faulty = self.deliveries(FaultPlan())
        plain = Device(seed=0)
        got_plain = []
        plain.register_event_listener(TYPES_ALL_MASK, got_plain.append)
        for _ in range(30):
            plain.emit_event(
                AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        assert got_faulty == got_plain


class TestScreenshotFaults:
    def test_throttle_rejects_back_to_back_captures(self):
        device = app_device(FaultPlan(screenshot_min_interval_ms=500.0))
        svc = AccessibilityService(device)
        svc.take_screenshot(stub=True)
        with pytest.raises(ScreenshotThrottledError):
            svc.take_screenshot(stub=True)
        device.clock.advance(500)
        svc.take_screenshot(stub=True)  # window elapsed: allowed again
        assert device.faults.counts["screenshots_throttled"] == 1

    def test_throttled_capture_is_not_billed(self):
        device = app_device(FaultPlan(screenshot_min_interval_ms=500.0))
        svc = AccessibilityService(device)
        svc.take_screenshot(stub=True)
        with pytest.raises(ScreenshotThrottledError):
            svc.take_screenshot(stub=True)
        assert device.perf.count(PerfOp.SCREENSHOT) == 1

    def test_failed_capture_is_billed(self):
        # A failure happens after the OS did the capture work, so the
        # cost model charges it like a successful shot.
        device = app_device(FaultPlan(screenshot_failure_rate=1.0))
        svc = AccessibilityService(device)
        with pytest.raises(ScreenshotFailedError):
            svc.take_screenshot(stub=True)
        assert device.perf.count(PerfOp.SCREENSHOT) == 1
        assert device.faults.counts["screenshots_failed"] == 1

    def test_throttled_is_a_screenshot_failure(self):
        # Retry logic treats both transient kinds through one handler.
        assert issubclass(ScreenshotThrottledError, ScreenshotFailedError)


class TestOverlayFaults:
    def test_rejected_mount_raises(self):
        device = app_device(FaultPlan(overlay_rejection_rate=1.0))
        svc = AccessibilityService(device)
        with pytest.raises(OverlayRejectedError):
            svc.add_overlay(View(bounds=Rect(0, 0, 10, 10)),
                            LayoutParams(x=0, y=0, width=10, height=10))
        assert device.window_manager.overlays() == []
        assert device.faults.counts["overlays_rejected"] == 1


class FixedDetector:
    def __init__(self):
        self.calls = 0

    def detect_screen(self, screen_image, conf_threshold=None):
        self.calls += 1
        return []


class TypeErrorDetector(FixedDetector):
    """A detector whose own code raises ``TypeError``.  It takes any
    keyword, so the error can only come from its body, never from the
    call's signature."""

    def detect_screen(self, screen_image, **options):
        self.calls += 1
        raise TypeError("bad tensor dtype")


class TestFaultyDetector:
    def test_crash_injection(self):
        device = app_device(FaultPlan(detector_failure_rate=1.0))
        inner = FixedDetector()
        det = FaultyDetector(inner, device.faults)
        with pytest.raises(DetectorCrashError):
            det.detect_screen(np.zeros((4, 4, 3)))
        assert inner.calls == 0  # crashed before the model ran

    def test_latency_spike_reported(self):
        plan = FaultPlan(detector_spike_rate=1.0, detector_spike_ms=400.0,
                         detector_base_ms=100.0)
        device = app_device(plan)
        det = FaultyDetector(FixedDetector(), device.faults)
        det.detect_screen(np.zeros((4, 4, 3)))
        assert det.last_detect_ms == pytest.approx(500.0)
        assert device.faults.counts["latency_spikes"] == 1

    def test_a_type_error_inside_the_detector_propagates_after_one_call(self):
        device = app_device(FaultPlan())
        inner = TypeErrorDetector()
        det = FaultyDetector(inner, device.faults)
        with pytest.raises(TypeError, match="bad tensor dtype"):
            det.detect_screen(np.zeros((4, 4, 3)), conf_threshold=0.5)
        assert inner.calls == 1

    def test_base_latency_without_spike(self):
        plan = FaultPlan(detector_failure_rate=0.0, detector_base_ms=100.0)
        device = app_device(plan)
        det = FaultyDetector(FixedDetector(), device.faults)
        det.detect_screen(np.zeros((4, 4, 3)))
        assert det.last_detect_ms == pytest.approx(100.0)
