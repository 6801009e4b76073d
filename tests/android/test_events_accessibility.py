"""Tests for accessibility events and the AccessibilityService."""

import numpy as np
import pytest

from repro.android import (
    AccessibilityEventType,
    AccessibilityService,
    Device,
    LayoutParams,
    View,
)
from repro.android.accessibility import (
    ScreenshotRinsedError,
    ScreenshotUnsupportedError,
)
from repro.android.events import TYPES_ALL_MASK, UI_UPDATE_TYPES
from repro.geometry import Offset, Rect


@pytest.fixture
def device():
    return Device(seed=1)


def attach_demo_app(device, fullscreen=False):
    root = View(bounds=Rect(0, 0, 360, 568))
    return device.window_manager.attach_app_window(root, "com.demo",
                                                   fullscreen=fullscreen)


class TestEventTypes:
    def test_exactly_23_types(self):
        assert len(AccessibilityEventType) == 23

    def test_types_are_distinct_bits(self):
        values = [int(t) for t in AccessibilityEventType]
        assert len(set(values)) == 23
        for v in values:
            assert v & (v - 1) == 0, f"{v:#x} is not a single bit"

    def test_windows_changed_code_matches_paper(self):
        assert int(AccessibilityEventType.TYPE_WINDOWS_CHANGED) == 0x00400000

    def test_all_mask_covers_everything(self):
        for t in AccessibilityEventType:
            assert TYPES_ALL_MASK & int(t)

    def test_ui_update_classification(self):
        assert AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED in UI_UPDATE_TYPES
        assert AccessibilityEventType.TYPE_TOUCH_INTERACTION_START not in UI_UPDATE_TYPES


class TestEventBus:
    def test_emit_stamps_clock_time(self, device):
        device.clock.advance(123)
        ev = device.emit_event(
            AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        assert ev.timestamp_ms == 123
        assert ev.code == 0x00400000

    def test_mask_filters_delivery(self, device):
        got = []
        device.register_event_listener(
            int(AccessibilityEventType.TYPE_VIEW_CLICKED), got.append)
        device.emit_event(AccessibilityEventType.TYPE_VIEW_CLICKED, "a")
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "a")
        assert len(got) == 1

    def test_event_log_records_everything(self, device):
        device.emit_event(AccessibilityEventType.TYPE_VIEW_CLICKED, "a")
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "b")
        assert len(device.event_log) == 2
        device.clear_event_log()
        assert device.event_log == []


class TestServiceDelivery:
    def test_immediate_delivery_without_timeout(self, device):
        svc = AccessibilityService(device)
        got = []
        svc.on_event = got.append
        svc.connect()
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        assert len(got) == 1

    def test_not_connected_receives_nothing(self, device):
        svc = AccessibilityService(device)
        got = []
        svc.on_event = got.append
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        assert got == []

    def test_double_connect_does_not_duplicate(self, device):
        svc = AccessibilityService(device)
        got = []
        svc.on_event = got.append
        svc.connect()
        svc.connect()
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        assert len(got) == 1

    def test_notification_timeout_coalesces(self, device):
        svc = AccessibilityService(device, notification_timeout_ms=200)
        got = []
        svc.on_event = got.append
        svc.connect()
        for _ in range(5):
            device.emit_event(
                AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
            device.clock.advance(10)
        assert got == []  # still within the batching window
        device.clock.advance(200)
        assert len(got) == 1  # one coalesced delivery

    def test_timeout_rejects_negative(self, device):
        with pytest.raises(ValueError):
            AccessibilityService(device, notification_timeout_ms=-1)

    def test_perf_counts_every_raw_event(self, device):
        from repro.android.device import PerfOp
        svc = AccessibilityService(device, notification_timeout_ms=200)
        svc.connect()
        for _ in range(7):
            device.emit_event(
                AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        assert device.perf.count(PerfOp.EVENT_DELIVERED) == 7


class TestDisconnect:
    def test_no_delivery_after_disconnect(self, device):
        svc = AccessibilityService(device)
        got = []
        svc.on_event = got.append
        svc.connect()
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        svc.disconnect()
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        assert len(got) == 1
        assert not svc.connected

    def test_disconnect_cancels_pending_coalesced_event(self, device):
        # Regression: a coalescing timer armed before shutdown used to
        # deliver one more event after it.
        svc = AccessibilityService(device, notification_timeout_ms=200)
        got = []
        svc.on_event = got.append
        svc.connect()
        device.emit_event(
            AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        svc.disconnect()
        device.clock.advance(1000)
        assert got == []

    def test_disconnect_is_idempotent_and_reconnectable(self, device):
        svc = AccessibilityService(device)
        got = []
        svc.on_event = got.append
        svc.connect()
        svc.disconnect()
        svc.disconnect()  # no error, no double-unregister
        svc.connect()
        device.emit_event(AccessibilityEventType.TYPE_WINDOWS_CHANGED, "com.demo")
        assert len(got) == 1

    def test_disconnect_without_connect_is_a_noop(self, device):
        AccessibilityService(device).disconnect()

    def test_unregister_unknown_listener_returns_false(self, device):
        assert not device.unregister_event_listener(lambda e: None)


class TestServiceStop:
    def test_stopped_service_ignores_later_events(self, device):
        from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy

        class NullDetector:
            def detect_screen(self, screen_image,
                              conf_threshold=None):
                return []

        attach_demo_app(device)
        svc = DarpaService(device, NullDetector(),
                           config=DarpaConfig(ct_ms=200.0),
                           policy=ScreenshotPolicy(consent_given=True))
        svc.start()
        device.emit_event(
            AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        svc.stop()
        # The settle timer for the pre-stop event is cancelled, and
        # post-stop events never reach the service at all.
        device.emit_event(
            AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED, "com.demo")
        device.clock.advance(1000)
        assert svc.stats.events_seen == 1
        assert svc.stats.screens_analyzed == 0
        assert svc.policy.captures == 0
        assert not svc.service.connected


class TestScreenshot:
    def test_screenshot_shape_matches_screen(self, device):
        attach_demo_app(device)
        svc = AccessibilityService(device)
        shot = svc.take_screenshot()
        assert shot.pixels.shape == (640, 360, 3)
        assert shot.package == "com.demo"

    def test_screenshot_requires_api_30(self):
        device = Device(api_level=29)
        svc = AccessibilityService(device)
        with pytest.raises(ScreenshotUnsupportedError):
            svc.take_screenshot()

    def test_rinse_blocks_later_access(self, device):
        attach_demo_app(device)
        svc = AccessibilityService(device)
        shot = svc.take_screenshot()
        shot.rinse()
        assert shot.rinsed
        with pytest.raises(ScreenshotRinsedError):
            _ = shot.pixels

    def test_rinse_idempotent(self, device):
        attach_demo_app(device)
        shot = AccessibilityService(device).take_screenshot()
        shot.rinse()
        shot.rinse()
        assert shot.rinsed


class TestOverlaysAndCalibration:
    def test_measure_window_offset_windowed(self, device):
        attach_demo_app(device, fullscreen=False)
        svc = AccessibilityService(device)
        assert svc.measure_window_offset() == Offset(0, 24)

    def test_measure_window_offset_fullscreen(self, device):
        attach_demo_app(device, fullscreen=True)
        svc = AccessibilityService(device)
        assert svc.measure_window_offset() == Offset(0, 0)

    def test_measure_leaves_no_overlay_behind(self, device):
        attach_demo_app(device)
        svc = AccessibilityService(device)
        svc.measure_window_offset()
        assert svc.overlays == []
        assert device.window_manager.overlays() == []

    def test_remove_all_overlays(self, device):
        attach_demo_app(device)
        svc = AccessibilityService(device)
        for _ in range(3):
            svc.add_overlay(View(bounds=Rect(0, 0, 1, 1)),
                            LayoutParams(width=10, height=10))
        assert svc.remove_all_overlays() == 3
        assert device.window_manager.overlays() == []

    def test_remove_overlay_untracks_that_view_not_an_equal_one(self, device):
        # Views compare by value, so removal must match by identity.
        attach_demo_app(device)
        svc = AccessibilityService(device)
        a = View(bounds=Rect(0, 0, 10, 10))
        b = View(bounds=Rect(0, 0, 10, 10))
        params = LayoutParams(width=10, height=10)
        svc.add_overlay(a, params)
        svc.add_overlay(b, params)
        assert a == b
        assert svc.remove_overlay(b)
        (left,) = svc.overlays
        assert left is a
        assert svc.remove_all_overlays() == 1
        assert device.window_manager.overlays() == []

    def test_dispatch_click_reaches_app(self, device):
        root = View(bounds=Rect(0, 0, 360, 568))
        hits = []
        root.add_child(View(bounds=Rect(300, 40, 40, 40), clickable=True,
                            on_click=lambda: hits.append(1)))
        device.window_manager.attach_app_window(root, "com.demo",
                                                fullscreen=False)
        svc = AccessibilityService(device)
        svc.dispatch_click(320, 84)  # screen coords; offset (0, 24)
        assert hits == [1]
