"""Run-time view decoration with coordinate calibration (Section IV-D).

The detector reports option boxes in *screen* coordinates; overlay
views added through ``WindowManager.addView`` are positioned in the
overlay window's coordinate space, which shares the foreground app's
insets.  Using screen coordinates directly therefore misplaces the
decoration by the status-bar height whenever the app is not full-screen
(paper Figure 4a).  DARPA measures that offset with an invisible anchor
view at window ``(0, 0)`` and subtracts it — the paper's Figure 6 code,
reproduced here as :meth:`ViewDecorator.decorate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.geometry.nms import ScoredBox
from repro.geometry.rect import Offset
from repro.android.accessibility import AccessibilityService
from repro.android.device import PerfOp
from repro.android.faults import OverlayRejectedError
from repro.android.view import View
from repro.android.window import LayoutParams
from repro.core.config import DecorationStyle


@dataclass
class AppliedDecoration:
    """Bookkeeping for one mounted decoration overlay."""

    view: View
    detection: ScoredBox


class ViewDecorator:
    """Mounts, tracks and removes decoration overlays."""

    def __init__(self, service: AccessibilityService,
                 style: Optional[DecorationStyle] = None,
                 calibrate: bool = True):
        self.service = service
        self.style = style or DecorationStyle()
        #: The Fig-4 toggle: disabling calibration reproduces the
        #: misplaced-decoration failure mode for tests/demos.
        self.calibrate = calibrate
        self._applied: List[AppliedDecoration] = []
        #: Overlay mounts the WindowManager refused (permission revoked
        #: mid-run); drained by the pipeline via :meth:`take_rejections`.
        self.rejections = 0

    # -- calibration (the anchor-view trick) -----------------------------

    def measure_offset(self) -> Offset:
        if not self.calibrate:
            return Offset(0, 0)
        return self.service.measure_window_offset()

    # -- decoration -----------------------------------------------------------

    def decorate(self, detections: Sequence[ScoredBox]) -> List[AppliedDecoration]:
        """Highlight each detection with a high-contrast stroke overlay.

        Mirrors the paper's ``decorate(aui, offset_x, offset_y)``: the
        overlay's layout position is the detection's screen position
        minus the measured window offset.
        """
        try:
            offset = self.measure_offset()
        except OverlayRejectedError:
            # No anchor view means no calibration: skip this round
            # rather than draw misplaced decorations (paper Fig. 4a).
            self.rejections += 1
            return []
        applied: List[AppliedDecoration] = []
        for det in detections:
            if det.label == "AGO" and not self.style.decorate_ago:
                continue
            color = (self.style.upo_color if det.label == "UPO"
                     else self.style.ago_color)
            box = det.rect.inflated(self.style.margin)
            params = LayoutParams(
                x=box.x - offset.x,
                y=box.y - offset.y,
                width=box.w,
                height=box.h,
            )
            # ``add_overlay`` lays the view out from ``params``.
            view = View(
                bounds=box,
                border_color=color,
                border_width=self.style.stroke_width,
            )
            try:
                self.service.add_overlay(view, params)
            except OverlayRejectedError:
                # Per-detection, so one refused mount neither aborts the
                # rest nor leaks already-mounted views from tracking.
                self.rejections += 1
                continue
            self.service.device.perf.record(PerfOp.DECORATION)
            applied.append(AppliedDecoration(view=view, detection=det))
        self._applied.extend(applied)
        return applied

    def take_rejections(self) -> int:
        """Drain and return the rejected-mount count since last drained."""
        count, self.rejections = self.rejections, 0
        return count

    def remove_all(self) -> int:
        """Unmount every decoration (done before each new screenshot)."""
        count = 0
        for deco in self._applied:
            if self.service.remove_overlay(deco.view):
                count += 1
        self._applied = []
        return count

    @property
    def active(self) -> List[AppliedDecoration]:
        return list(self._applied)

    # -- auto-bypass -----------------------------------------------------------

    def bypass(self, detections: Sequence[ScoredBox]) -> Optional[View]:
        """Auto-click the most confident UPO (the alternative option of
        Section IV-D); returns the clicked view, if any."""
        upos = sorted((d for d in detections if d.label == "UPO"),
                      key=lambda d: d.score, reverse=True)
        for det in upos:
            cx, cy = det.rect.center
            hit = self.service.dispatch_click(cx, cy)
            if hit is not None:
                return hit
        return None
