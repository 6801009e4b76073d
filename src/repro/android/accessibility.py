"""The Accessibility Service surface DARPA builds on.

This mirrors the subset of ``android.accessibilityservice`` the paper
uses (Section IV-B, Section V):

- registration for all 23 event types with a notification timeout that
  coalesces event storms;
- ``take_screenshot`` (Android 11+ only, as the paper notes);
- overlay management through the WindowManager (decoration views and
  the invisible calibration anchor);
- dispatched taps (the auto-bypass option clicks the UPO region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.geometry.rect import Offset, Rect
from repro.android.device import Device, PerfOp
from repro.android.events import AccessibilityEvent, TYPES_ALL_MASK
from repro.android.renderer import render_screen
from repro.android.view import View, Visibility
from repro.android.window import LayoutParams, Window, WindowType


class ScreenshotUnsupportedError(RuntimeError):
    """Raised on devices below Android 11 (API 30)."""


class ScreenshotRinsedError(RuntimeError):
    """Raised when code touches a screenshot after its rinse."""


@dataclass
class Screenshot:
    """A captured screen raster with a privacy-conscious lifecycle.

    The paper stores screenshots only in app-internal storage and
    "rinses them immediately after running the CV-model".  ``rinse()``
    destroys the pixel buffer; later access raises, so a pipeline that
    leaks screenshots fails loudly in tests.
    """

    _pixels: Optional[np.ndarray]
    taken_at_ms: float
    package: str

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            raise ScreenshotRinsedError("screenshot was rinsed after use")
        return self._pixels

    @property
    def rinsed(self) -> bool:
        return self._pixels is None

    def rinse(self) -> None:
        if self._pixels is not None:
            self._pixels.fill(0.0)  # overwrite before dropping the ref
            self._pixels = None


class AccessibilityService:
    """A simulated accessibility service bound to one device.

    Construct, optionally set :attr:`on_event`, then :meth:`connect`.
    Events arriving within ``notification_timeout_ms`` of the previous
    delivery are coalesced: only the latest is delivered when the
    timeout expires (Android's ``AccessibilityServiceInfo`` behaviour).
    """

    def __init__(
        self,
        device: Device,
        package: str = "org.repro.darpa",
        event_mask: int = TYPES_ALL_MASK,
        notification_timeout_ms: float = 0.0,
    ):
        if notification_timeout_ms < 0:
            raise ValueError("notification timeout cannot be negative")
        self.device = device
        self.package = package
        self.event_mask = event_mask
        self.notification_timeout_ms = notification_timeout_ms
        self.on_event: Optional[Callable[[AccessibilityEvent], None]] = None
        self.connected = False
        #: Optional :class:`repro.core.observability.Tracer`; when set,
        #: every event receipt runs inside an ``event`` span and its
        #: delivery charge is attributed there.  None (the default)
        #: keeps this module decoupled from the tracing layer.
        self.tracer = None
        self._pending: Optional[AccessibilityEvent] = None
        self._timer: Optional[int] = None
        self._overlays: List[View] = []

    # -- lifecycle ------------------------------------------------------

    def connect(self) -> None:
        """Register with the OS for the configured event mask."""
        if self.connected:
            return
        self.device.register_event_listener(self.event_mask, self._receive)
        self.connected = True

    def disconnect(self) -> None:
        """Unregister from the event bus and drop any coalesced event.

        Without this, a stopped service still receives every bus event,
        and a pending notification-timeout timer can deliver one more
        coalesced event *after* shutdown.  Safe to call twice; the
        service can :meth:`connect` again afterwards.
        """
        if not self.connected:
            return
        self.device.unregister_event_listener(self._receive)
        if self._timer is not None:
            self.device.clock.cancel(self._timer)
            self._timer = None
        self._pending = None
        self.connected = False

    # -- event delivery ----------------------------------------------------

    def _receive(self, event: AccessibilityEvent) -> None:
        if self.tracer is None:
            self._receive_inner(event)
            return
        with self.tracer.span("event", type=event.event_type.name,
                              package=event.package):
            self._receive_inner(event)

    def _receive_inner(self, event: AccessibilityEvent) -> None:
        self.device.perf.record(PerfOp.EVENT_DELIVERED)
        if self.notification_timeout_ms <= 0:
            self._deliver(event)
            return
        self._pending = event
        if self._timer is None:
            self._timer = self.device.clock.schedule(
                self.notification_timeout_ms, self._flush_pending
            )

    def _flush_pending(self) -> None:
        self._timer = None
        event, self._pending = self._pending, None
        if event is not None:
            self._deliver(event)

    def _deliver(self, event: AccessibilityEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    # -- capabilities ---------------------------------------------------

    def take_screenshot(self, stub: bool = False) -> Screenshot:
        """``AccessibilityService.takeScreenshot`` (API 30+).

        ``stub`` skips rasterization and returns a 1x1 placeholder —
        for simulation sweeps whose detector never reads pixels (e.g.
        the oracle-driven ct sweeps), where rendering would dominate
        wall-clock without changing any counted operation.  Perf
        accounting is identical either way.
        """
        if self.device.api_level < 30:
            raise ScreenshotUnsupportedError(
                f"takeScreenshot needs API 30+, device has {self.device.api_level}"
            )
        faults = getattr(self.device, "faults", None)
        if faults is not None:
            # The OS interval limit rejects before any capture work...
            faults.check_screenshot_throttle()
        self.device.perf.record(PerfOp.SCREENSHOT)
        if faults is not None:
            # ...while a transient capture failure is billed like a
            # capture: the work happened, the buffer was lost.
            faults.check_screenshot_failure()
        top = self.device.window_manager.top_app_window()
        if stub:
            pixels = np.zeros((1, 1, 3), dtype=np.float32)
        else:
            canvas = render_screen(self.device.window_manager,
                                   noise_rng=self.device.rng)
            pixels = canvas.pixels
        return Screenshot(
            _pixels=pixels,
            taken_at_ms=self.device.clock.now_ms,
            package=top.package if top else "<none>",
        )

    def add_overlay(self, view: View, params: LayoutParams) -> Window:
        """Mount an overlay view (decoration or calibration anchor).

        Raises :class:`repro.android.faults.OverlayRejectedError` when a
        fault plan revokes the overlay permission mid-run.
        """
        faults = getattr(self.device, "faults", None)
        if faults is not None:
            faults.check_overlay()
        window = self.device.window_manager.add_view(view, params, self.package)
        self._overlays.append(view)
        return window

    def remove_overlay(self, view: View) -> bool:
        """Unmount an overlay and stop tracking it.

        Matched by identity, like the window it unmounts: views compare
        by value, and two value-equal overlays are still two mounts.
        """
        removed = self.device.window_manager.remove_view(view)
        if removed:
            for i, tracked in enumerate(self._overlays):
                if tracked is view:
                    del self._overlays[i]
                    break
        return removed

    def remove_all_overlays(self) -> int:
        count = 0
        for view in list(self._overlays):
            if self.remove_overlay(view):
                count += 1
        return count

    @property
    def overlays(self) -> List[View]:
        return list(self._overlays)

    def measure_window_offset(self) -> Offset:
        """The paper's anchor-view calibration (Section IV-D).

        Mounts an invisible 1x1 anchor at overlay coordinate ``(0, 0)``,
        reads its on-screen location, and unmounts it.  The result is
        the current window's screen offset: ``(0, 0)`` for full-screen
        apps, ``(0, status_bar_height)`` otherwise.  The anchor is a
        fresh view at its window's origin, so its location is the offset
        of the overlay window just mounted for it; no other window can
        hold it, so the stack is not searched.
        """
        anchor = View(bounds=Rect(0, 0, 1, 1), visibility=Visibility.INVISIBLE)
        window = self.add_overlay(
            anchor, LayoutParams(x=0, y=0, width=1, height=1))
        self.remove_overlay(anchor)
        return window.offset

    def dispatch_click(self, screen_x: float, screen_y: float) -> Optional[View]:
        """Inject a tap at screen coordinates (auto-bypass path)."""
        return self.device.window_manager.dispatch_click(screen_x, screen_y)
