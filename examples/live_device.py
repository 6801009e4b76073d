"""Runtime mechanics demo: calibration (Figure 4) and auto-bypass.

Uses a ground-truth oracle in place of the CV model so the runtime
behaviour — event debouncing, the anchor-view coordinate calibration,
decoration placement, and the auto-click bypass — is exact and easy to
follow.  Saves before/after screenshots (PPM) showing the paper's
Figure 4: an uncalibrated decoration lands a status-bar-height too low.

Run:  python examples/live_device.py [output_dir]
"""

import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.android import (
    AccessibilityService,
    AppSpec,
    Device,
    SemanticRole,
    SimulatedApp,
    UiStep,
    UiTimeline,
    View,
    render_screen,
)
from repro.android.apps import ScreenState
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy, ViewDecorator
from repro.geometry import Rect, ScoredBox
from repro.imaging.color import PALETTE


def save_ppm(path: Path, image: np.ndarray) -> None:
    data = (np.clip(image, 0, 1) * 255).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def build_aui() -> ScreenState:
    """A promo dialog with a huge AGO and a tiny corner UPO."""
    root = View(bounds=Rect(0, 0, 360, 568), bg_color=PALETTE["white"])
    root.add_child(View(bounds=Rect(0, 0, 360, 568),
                        bg_color=PALETTE["black"], bg_alpha=0.55))
    card = root.add_child(View(bounds=Rect(40, 140, 280, 300),
                               bg_color=PALETTE["white"], corner_radius=14))
    ago = root.add_child(View(bounds=Rect(80, 340, 200, 56), clickable=True,
                              role=SemanticRole.AGO, bg_color=PALETTE["red"],
                              corner_radius=26, text="join free",
                              text_size=15, text_color=PALETTE["white"]))
    closed: List[int] = []
    upo = root.add_child(View(bounds=Rect(316, 120, 22, 22), clickable=True,
                              role=SemanticRole.UPO, bg_color=PALETTE["light_gray"],
                              icon="cross", icon_color=PALETTE["dark_gray"],
                              on_click=lambda: closed.append(1)))
    state = ScreenState(root=root, is_aui=True, name="promo",
                        label_boxes=[("AGO", ago.bounds), ("UPO", upo.bounds)])
    state.closed = closed  # type: ignore[attr-defined]
    del card
    return state


class Oracle:
    def __init__(self, device: Device, app: SimulatedApp):
        self.device = device
        self.app = app

    def detect_screen(self, screen_image, conf_threshold=None):
        state = self.app.current
        if state is None or not state.is_aui:
            return []
        top = self.device.window_manager.top_app_window()
        return [ScoredBox(rect=rect.offset_by(top.offset), label=role,
                          score=0.98)
                for role, rect in state.label_boxes]


def main() -> None:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "device_shots")
    out_dir.mkdir(exist_ok=True)

    # --- Figure 4: decoration with and without calibration ------------
    print("== Figure 4: why decoration needs calibration ==")
    for calibrate in (False, True):
        device = Device(seed=0)
        state = build_aui()
        device.window_manager.attach_app_window(state.root, "com.demo",
                                                fullscreen=False)
        svc = AccessibilityService(device)
        deco = ViewDecorator(svc, calibrate=calibrate)
        top = device.window_manager.top_app_window()
        detections = [ScoredBox(rect=rect.offset_by(top.offset), label=role,
                                score=0.98)
                      for role, rect in state.label_boxes]
        deco.decorate(detections)
        shot = render_screen(device.window_manager)
        name = "fig4b_calibrated.ppm" if calibrate else "fig4a_uncalibrated.ppm"
        save_ppm(out_dir / name, shot.pixels)
        upo_overlay = min(device.window_manager.overlays(),
                          key=lambda w: w.root.bounds.area)
        loc = device.window_manager.get_location_on_screen(upo_overlay.root)
        truth_y = 120 + 24  # window y + status bar
        print(f"  calibrate={calibrate}: UPO decoration top at screen "
              f"y={loc.y:.0f} (true option at y={truth_y}) -> {name}")

    # --- Auto-bypass ----------------------------------------------------
    print("\n== Auto-bypass: DARPA clicks the UPO for the user ==")
    device = Device(seed=1)
    state = build_aui()
    timeline = UiTimeline([UiStep(0, state)])
    app = SimulatedApp(device, AppSpec(package="com.demo", timeline=timeline))
    service = DarpaService(
        device, Oracle(device, app),
        config=DarpaConfig(ct_ms=200.0, auto_bypass=True),
        policy=ScreenshotPolicy(consent_given=True),
    )
    service.start()
    app.launch()
    device.clock.advance(1_000)
    print(f"  bypass clicks: {service.stats.bypass_clicks}")
    print(f"  the app's close handler ran: {bool(state.closed)}")
    service.stop()
    print(f"\nScreenshots written to {out_dir}/")


if __name__ == "__main__":
    main()
