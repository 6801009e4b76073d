"""Tests for view decoration (Fig 4 calibration) and security policy."""

import numpy as np
import pytest

from repro.android import AccessibilityService, Device, View
from repro.core import (
    ConsentError,
    DARPA_MANIFEST,
    DecorationStyle,
    Manifest,
    ScreenshotPolicy,
    ViewDecorator,
)
from repro.core.security import ManifestViolation
from repro.geometry import Rect, ScoredBox


@pytest.fixture
def device():
    return Device(seed=0)


def attach_app(device, fullscreen=False):
    root = View(bounds=Rect(0, 0, 360, 568))
    device.window_manager.attach_app_window(root, "com.demo",
                                            fullscreen=fullscreen)
    return root


def upo_detection(x=300, y=60, s=24):
    return ScoredBox(rect=Rect(x, y, s, s), label="UPO", score=0.9)


class TestCalibration:
    """The paper's Figure 4: decorations without calibration land low."""

    def test_calibrated_decoration_matches_screen_position(self, device):
        attach_app(device, fullscreen=False)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc)
        det = upo_detection(x=300, y=60)
        applied = deco.decorate([det])
        assert len(applied) == 1
        on_screen = device.window_manager.get_location_on_screen(applied[0].view)
        margin = deco.style.margin
        assert on_screen.x == pytest.approx(300 - margin)
        assert on_screen.y == pytest.approx(60 - margin)

    def test_uncalibrated_decoration_off_by_status_bar(self, device):
        attach_app(device, fullscreen=False)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc, calibrate=False)
        applied = deco.decorate([upo_detection(x=300, y=60)])
        on_screen = device.window_manager.get_location_on_screen(applied[0].view)
        # Fig 4a: positioned BELOW the actual option by the bar height.
        assert on_screen.y == pytest.approx(60 - deco.style.margin + 24)

    def test_fullscreen_needs_no_offset(self, device):
        attach_app(device, fullscreen=True)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc)
        applied = deco.decorate([upo_detection()])
        on_screen = device.window_manager.get_location_on_screen(applied[0].view)
        assert on_screen.y == pytest.approx(60 - deco.style.margin)


class TestDecorationLifecycle:
    def test_remove_all_clears_overlays(self, device):
        attach_app(device)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc)
        deco.decorate([upo_detection(), upo_detection(x=100, y=300)])
        assert len(device.window_manager.overlays()) == 2
        assert deco.remove_all() == 2
        assert device.window_manager.overlays() == []
        assert deco.active == []

    def test_style_can_skip_ago(self, device):
        attach_app(device)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc, style=DecorationStyle(decorate_ago=False))
        dets = [upo_detection(),
                ScoredBox(rect=Rect(80, 250, 200, 60), label="AGO", score=0.8)]
        applied = deco.decorate(dets)
        assert [a.detection.label for a in applied] == ["UPO"]

    def test_decoration_counts_in_perf(self, device):
        from repro.android.device import PerfOp
        attach_app(device)
        svc = AccessibilityService(device)
        ViewDecorator(svc).decorate([upo_detection()])
        assert device.perf.count(PerfOp.DECORATION) == 1


class TestAutoBypass:
    def test_bypass_clicks_upo(self, device):
        root = attach_app(device, fullscreen=False)
        clicks = []
        root.add_child(View(bounds=Rect(300, 36, 24, 24), clickable=True,
                            on_click=lambda: clicks.append("upo")))
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc)
        # Screen coords of the button center: (312, 36+12+24)= (312, 72).
        hit = deco.bypass([upo_detection(x=300, y=60, s=24)])
        assert hit is not None and clicks == ["upo"]

    def test_bypass_ignores_ago(self, device):
        attach_app(device)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc)
        ago = ScoredBox(rect=Rect(80, 250, 200, 60), label="AGO", score=0.9)
        assert deco.bypass([ago]) is None


class TestManifest:
    def test_darpa_manifest_has_no_internet(self):
        assert not DARPA_MANIFEST.declares_internet()

    def test_require_missing_permission_raises(self):
        with pytest.raises(ManifestViolation):
            DARPA_MANIFEST.require("android.permission.INTERNET")

    def test_require_present_permission_ok(self):
        DARPA_MANIFEST.require("android.permission.SYSTEM_ALERT_WINDOW")


class TestScreenshotPolicy:
    def test_startup_requires_consent(self):
        policy = ScreenshotPolicy()
        with pytest.raises(ConsentError):
            policy.check_startup()
        policy.give_consent()
        policy.check_startup()

    def test_internet_manifest_rejected_at_startup(self):
        bad = Manifest(permissions=frozenset({"android.permission.INTERNET"}))
        policy = ScreenshotPolicy(manifest=bad, consent_given=True)
        with pytest.raises(ManifestViolation):
            policy.check_startup()

    def test_capture_without_consent_raises(self, device):
        attach_app(device)
        svc = AccessibilityService(device)
        policy = ScreenshotPolicy()
        with pytest.raises(ConsentError):
            with policy.analyzed_screenshot(svc):
                pass

    def test_screenshot_rinsed_after_analysis(self, device):
        attach_app(device)
        svc = AccessibilityService(device)
        policy = ScreenshotPolicy(consent_given=True)
        with policy.analyzed_screenshot(svc) as shot:
            assert shot.pixels.shape == (640, 360, 3)
        assert shot.rinsed
        assert policy.outstanding == 0

    def test_rinse_happens_even_on_detector_crash(self, device):
        attach_app(device)
        svc = AccessibilityService(device)
        policy = ScreenshotPolicy(consent_given=True)
        captured = {}
        with pytest.raises(RuntimeError, match="detector exploded"):
            with policy.analyzed_screenshot(svc) as shot:
                captured["shot"] = shot
                raise RuntimeError("detector exploded")
        assert captured["shot"].rinsed
        assert policy.outstanding == 0

    def test_consent_returns_policy_text(self):
        policy = ScreenshotPolicy()
        text = policy.give_consent()
        assert "screenshot" in text.lower()
        assert "network" in text.lower() or "transmit" in text.lower()

    def test_failed_capture_counts_no_capture_and_no_rinse(self, device):
        # When takeScreenshot itself raises, no pixel buffer ever
        # existed: the ledger must not record a capture (or a phantom
        # rinse for it).
        from repro.android.faults import FaultPlan, FaultyDevice, \
            ScreenshotFailedError
        faulty = FaultyDevice(plan=FaultPlan(screenshot_failure_rate=1.0),
                              seed=0)
        root = View(bounds=Rect(0, 0, 360, 568))
        faulty.window_manager.attach_app_window(root, "com.demo")
        svc = AccessibilityService(faulty)
        policy = ScreenshotPolicy(consent_given=True)
        with pytest.raises(ScreenshotFailedError):
            with policy.analyzed_screenshot(svc):
                pass
        assert policy.captures == 0
        assert policy.rinses == 0
        assert policy.outstanding == 0


class TestServiceStartupPolicy:
    """DarpaService.start() runs the policy checks before anything else."""

    def make_service(self, device, policy):
        from repro.core import DarpaService

        class NullDetector:
            def detect_screen(self, screen_image,
                              conf_threshold=None):
                return []

        return DarpaService(device, NullDetector(), policy=policy)

    def test_start_without_consent_raises(self, device):
        svc = self.make_service(device, ScreenshotPolicy())
        with pytest.raises(ConsentError):
            svc.start()
        assert not svc.running
        assert not svc.service.connected  # never registered on the bus

    def test_start_with_internet_manifest_raises(self, device):
        bad = Manifest(permissions=frozenset({"android.permission.INTERNET"}))
        svc = self.make_service(
            device, ScreenshotPolicy(manifest=bad, consent_given=True))
        with pytest.raises(ManifestViolation):
            svc.start()
        assert not svc.running

    def test_consent_then_start_succeeds(self, device):
        policy = ScreenshotPolicy()
        svc = self.make_service(device, policy)
        policy.give_consent()
        svc.start()
        assert svc.running and svc.service.connected

    def test_detector_crash_leaves_no_unrinsed_screenshots(self, device):
        root = View(bounds=Rect(0, 0, 360, 568))
        device.window_manager.attach_app_window(root, "com.demo")
        policy = ScreenshotPolicy(consent_given=True)

        from repro.core import DarpaConfig, DarpaService

        class ExplodingDetector:
            def detect_screen(self, screen_image,
                              conf_threshold=None):
                raise RuntimeError("native inference aborted")

        svc = DarpaService(device, ExplodingDetector(), policy=policy,
                           config=DarpaConfig(fallback_to_heuristic=False))
        svc.start()
        from repro.android import AccessibilityEventType
        device.emit_event(
            AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        device.clock.advance(1000)
        assert policy.captures == 1
        assert policy.outstanding == 0  # rinsed despite the crash
