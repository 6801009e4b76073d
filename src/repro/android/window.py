"""Windows, the screen, and the WindowManager.

The substrate reproduces the exact geometry that makes DARPA's
decoration calibration necessary (paper Section IV-D / Figure 4):

- The *screen* is the physical raster, including a status bar at the
  top and a navigation bar at the bottom.
- An *application window* either covers the whole screen (full-screen
  mode, offset ``(0, 0)``) or only the area between the bars (offset
  ``(0, status_bar_height)``).
- Views position themselves in *window* coordinates; overlay windows
  added through ``WindowManager.add_view`` share the application
  window's insets, so placing a decoration at raw *screen* coordinates
  lands it too low by exactly the window offset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.geometry.rect import Offset, Rect
from repro.android.view import View, Visibility


class WindowType(Enum):
    """The window layers we model (a small subset of Android's)."""

    APPLICATION = "application"
    ACCESSIBILITY_OVERLAY = "accessibility_overlay"


@dataclass(frozen=True)
class Screen:
    """Physical screen geometry in logical pixels."""

    width: int = 360
    height: int = 640
    status_bar_height: int = 24
    nav_bar_height: int = 48

    def __post_init__(self) -> None:
        usable = self.height - self.status_bar_height - self.nav_bar_height
        if usable <= 0:
            raise ValueError("bars leave no room for app content")

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    @property
    def app_area(self) -> Rect:
        """The region between the status and navigation bars."""
        return Rect(
            0,
            self.status_bar_height,
            self.width,
            self.height - self.status_bar_height - self.nav_bar_height,
        )

    def window_offset(self, fullscreen: bool) -> Offset:
        """Screen offset of an app (or overlay) window's origin."""
        if fullscreen:
            return Offset(0, 0)
        return Offset(0, self.status_bar_height)

    def window_size(self, fullscreen: bool) -> Rect:
        if fullscreen:
            return self.bounds
        area = self.app_area
        return Rect(0, 0, area.w, area.h)


@dataclass
class LayoutParams:
    """``WindowManager.LayoutParams`` — position/size of an added view.

    ``x``/``y`` are interpreted in the overlay window's own coordinate
    space (which shares the app window's insets), which is precisely why
    uncalibrated screen coordinates misplace decorations.
    """

    x: float = 0.0
    y: float = 0.0
    width: float = 0.0
    height: float = 0.0
    window_type: WindowType = WindowType.ACCESSIBILITY_OVERLAY


_window_ids = itertools.count(1)


@dataclass
class Window:
    """A window: a root view positioned somewhere on the screen."""

    root: View
    package: str
    kind: WindowType = WindowType.APPLICATION
    fullscreen: bool = False
    offset: Offset = field(default_factory=Offset)

    def __post_init__(self) -> None:
        self.window_id: int = next(_window_ids)

    def screen_bounds_of(self, view: View) -> Rect:
        """A view's bounds translated into screen coordinates."""
        return view.bounds.offset_by(self.offset)

    def contains_view(self, view: View) -> bool:
        """Whether ``view`` is in this window's tree, by identity,
        skipping GONE subtrees as :meth:`View.iter_tree` does."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.visibility is Visibility.GONE:
                continue
            if node is view:
                return True
            stack.extend(node.children)
        return False


class WindowManager:
    """Owns the window stack (bottom-to-top z-order) for one screen."""

    def __init__(self, screen: Screen):
        self.screen = screen
        self._stack: List[Window] = []

    # -- application windows ------------------------------------------

    def attach_app_window(self, root: View, package: str,
                          fullscreen: bool = False) -> Window:
        """Show an application window, replacing any window of the same
        package (apps swap screens rather than stack them)."""
        self._stack = [w for w in self._stack
                       if not (w.package == package and w.kind is WindowType.APPLICATION)]
        window = Window(
            root=root,
            package=package,
            kind=WindowType.APPLICATION,
            fullscreen=fullscreen,
            offset=self.screen.window_offset(fullscreen),
        )
        self._stack.append(window)
        return window

    def top_app_window(self) -> Optional[Window]:
        for window in reversed(self._stack):
            if window.kind is WindowType.APPLICATION:
                return window
        return None

    # -- overlays (the DARPA decoration path) ------------------------------

    def add_view(self, view: View, params: LayoutParams, package: str) -> Window:
        """``WindowManager.addView`` — mount an overlay view.

        The view's bounds are taken from ``params``; the overlay window
        inherits the insets of the current foreground app window, so a
        non-full-screen app yields a non-zero overlay offset.
        """
        view.bounds = Rect(params.x, params.y, params.width, params.height)
        top = self.top_app_window()
        fullscreen = top.fullscreen if top is not None else True
        window = Window(
            root=view,
            package=package,
            kind=WindowType.ACCESSIBILITY_OVERLAY,
            fullscreen=fullscreen,
            offset=self.screen.window_offset(fullscreen),
        )
        self._stack.append(window)
        return window

    def remove_view(self, view: View) -> bool:
        """``WindowManager.removeView`` — unmount an overlay by its root."""
        for i, window in enumerate(self._stack):
            if window.kind is WindowType.ACCESSIBILITY_OVERLAY and window.root is view:
                del self._stack[i]
                return True
        return False

    def remove_windows_of(self, package: str) -> int:
        """Drop every window owned by ``package``; returns the count."""
        before = len(self._stack)
        self._stack = [w for w in self._stack if w.package != package]
        return before - len(self._stack)

    # -- queries -----------------------------------------------------------

    @property
    def windows(self) -> List[Window]:
        """Bottom-to-top snapshot of the stack."""
        return list(self._stack)

    def overlays(self) -> List[Window]:
        return [w for w in self._stack if w.kind is WindowType.ACCESSIBILITY_OVERLAY]

    def window_of(self, view: View) -> Optional[Window]:
        for window in self._stack:
            if window.contains_view(view):
                return window
        return None

    def get_location_on_screen(self, view: View) -> Offset:
        """``View.getLocationOnScreen`` — screen coords of a view origin.

        This is the API DARPA's anchor-view calibration uses: an anchor
        added at window ``(0, 0)`` reports exactly the window offset.
        """
        window = self.window_of(view)
        if window is None:
            raise ValueError("view is not attached to any window")
        return Offset(window.offset.x + view.bounds.x,
                      window.offset.y + view.bounds.y)

    def dispatch_click(self, screen_x: float, screen_y: float) -> Optional[View]:
        """Route a tap at screen coordinates to the topmost clickable view."""
        for window in reversed(self._stack):
            local_x = screen_x - window.offset.x
            local_y = screen_y - window.offset.y
            hit = window.root.hit_test(local_x, local_y)
            if hit is not None:
                hit.click()
                return hit
        return None
