"""End-to-end tests of DarpaService with a scripted fake detector."""

from typing import List, Optional

import numpy as np
import pytest

from repro.android import (
    AppSpec,
    Device,
    SemanticRole,
    SimulatedApp,
    UiStep,
    UiTimeline,
    View,
)
from repro.android.apps import ScreenState
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy
from repro.geometry import Rect, ScoredBox
from repro.imaging.color import PALETTE


class OracleDetector:
    """A stand-in detector that reads the ground truth off the device.

    Pipeline tests should test the *pipeline* — debounce timing,
    screenshot lifecycle, decoration placement — not the CV model, so
    the oracle answers from the foreground screen's labeled boxes.
    """

    def __init__(self, device: Device, app: "SimulatedApp"):
        self.device = device
        self.app = app
        self.calls = 0

    def detect_screen(self, screen_image: np.ndarray,
                      conf_threshold: Optional[float] = None) -> List[ScoredBox]:
        self.calls += 1
        state = self.app.current
        if state is None or not state.is_aui:
            return []
        top = self.device.window_manager.top_app_window()
        offset = top.offset if top else None
        out = []
        for role, rect in state.label_boxes:
            box = rect.offset_by(offset) if offset else rect
            out.append(ScoredBox(rect=box, label=role, score=0.95))
        return out


def aui_screen():
    root = View(bounds=Rect(0, 0, 360, 568), bg_color=PALETTE["white"])
    ago = root.add_child(View(bounds=Rect(80, 250, 200, 60), clickable=True,
                              role=SemanticRole.AGO, bg_color=PALETTE["red"]))
    closed = []
    upo = root.add_child(View(bounds=Rect(320, 16, 24, 24), clickable=True,
                              role=SemanticRole.UPO,
                              on_click=lambda: closed.append(1)))
    state = ScreenState(root=root, is_aui=True, name="aui",
                        label_boxes=[("AGO", ago.bounds), ("UPO", upo.bounds)])
    state.closed = closed  # type: ignore[attr-defined]
    return state


def plain_screen(name="plain"):
    root = View(bounds=Rect(0, 0, 360, 568), bg_color=PALETTE["white"])
    return ScreenState(root=root, name=name)


def make_session(ct_ms=200.0, auto_bypass=False, steps=None):
    device = Device(seed=0)
    timeline = UiTimeline(steps or [
        UiStep(0, plain_screen("a"), minor_updates=3, minor_spacing_ms=50),
        UiStep(1000, aui_screen()),
        UiStep(4000, plain_screen("b")),
    ])
    app = SimulatedApp(device, AppSpec(package="com.demo", timeline=timeline))
    detector = OracleDetector(device, app)
    service = DarpaService(
        device, detector,
        config=DarpaConfig(ct_ms=ct_ms, auto_bypass=auto_bypass),
        policy=ScreenshotPolicy(consent_given=True),
    )
    return device, app, detector, service


class TestLifecycle:
    def test_start_requires_consent(self):
        device, app, detector, _ = make_session()
        service = DarpaService(device, detector)  # default: no consent
        from repro.core import ConsentError
        with pytest.raises(ConsentError):
            service.start()

    def test_components_resident_after_start(self):
        device, app, detector, service = make_session()
        service.start()
        report = device.perf.report(60_000)
        assert report.memory_mb > 4291.96  # components charged

    def test_stop_clears_overlays_and_timers(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(2000)
        assert device.window_manager.overlays()  # decorated the AUI
        service.stop()
        assert device.window_manager.overlays() == []
        assert not service.running


class TestAnalysisFlow:
    def test_settled_screens_analyzed(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(6000)
        # Screens: a (settles after minor updates), aui, b.
        assert service.stats.screens_analyzed == 3
        assert service.stats.auis_flagged == 1

    def test_aui_decorated_with_calibrated_overlays(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(2000)
        overlays = device.window_manager.overlays()
        assert len(overlays) == 2  # AGO + UPO decorations
        # The UPO decoration must ring the true on-screen position.
        margin = service.decorator.style.margin
        upo_overlay = min(overlays, key=lambda w: w.root.bounds.area)
        loc = device.window_manager.get_location_on_screen(upo_overlay.root)
        assert loc.x == pytest.approx(320 - margin)
        assert loc.y == pytest.approx(16 + 24 - margin)  # +status bar

    def test_screenshots_always_rinsed(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(6000)
        assert service.policy.outstanding == 0
        assert service.policy.captures == service.stats.screens_analyzed

    def test_continuous_animation_never_analyzed(self):
        steps = [UiStep(0, plain_screen(), minor_updates=100,
                        minor_spacing_ms=50)]
        device, app, detector, service = make_session(ct_ms=200, steps=steps)
        service.start()
        app.launch()
        device.clock.advance(4000)
        assert service.stats.screens_analyzed == 0  # never quiet for 200ms

    def test_trusted_package_skipped(self):
        device, app, detector, _ = make_session()
        service = DarpaService(
            device, detector,
            config=DarpaConfig(trusted_packages=("com.demo",)),
            policy=ScreenshotPolicy(consent_given=True),
        )
        service.start()
        app.launch()
        device.clock.advance(6000)
        assert service.stats.screens_analyzed == 0

    def test_old_decorations_removed_before_next_analysis(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(6000)  # past the plain 'b' screen
        # AUI decorations must be gone once a non-AUI screen settled.
        assert device.window_manager.overlays() == []


class TestAutoBypass:
    def test_bypass_clicks_the_upo(self):
        device, app, detector, service = make_session(auto_bypass=True)
        service.start()
        app.launch()
        device.clock.advance(2000)
        assert service.stats.bypass_clicks == 1
        aui_state = app.spec.timeline.steps[1].screen
        assert aui_state.closed == [1]  # the real view got the click
        # Bypass replaces decoration.
        assert device.window_manager.overlays() == []


class TestStatsRecords:
    def test_records_carry_package_and_flag(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(6000)
        flagged = [r for r in service.stats.records if r.flagged_aui]
        assert len(flagged) == 1
        assert flagged[0].package == "com.demo"
