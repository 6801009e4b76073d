"""Tests for Screen, Window, WindowManager — incl. the Fig-4 geometry."""

import pytest

from repro.android import (
    LayoutParams,
    Screen,
    View,
    Visibility,
    WindowManager,
    WindowType,
)
from repro.geometry import Offset, Rect


@pytest.fixture
def screen():
    return Screen(width=360, height=640, status_bar_height=24, nav_bar_height=48)


@pytest.fixture
def wm(screen):
    return WindowManager(screen)


def app_root():
    return View(bounds=Rect(0, 0, 360, 568))


class TestScreen:
    def test_app_area_excludes_bars(self, screen):
        assert screen.app_area == Rect(0, 24, 360, 568)

    def test_fullscreen_offset_zero(self, screen):
        assert screen.window_offset(fullscreen=True) == Offset(0, 0)

    def test_windowed_offset_is_status_bar(self, screen):
        assert screen.window_offset(fullscreen=False) == Offset(0, 24)

    def test_rejects_bars_larger_than_screen(self):
        with pytest.raises(ValueError):
            Screen(width=100, height=50, status_bar_height=30, nav_bar_height=30)

    def test_window_size_modes(self, screen):
        assert screen.window_size(True) == Rect(0, 0, 360, 640)
        assert screen.window_size(False) == Rect(0, 0, 360, 568)


class TestAppWindows:
    def test_attach_sets_offset(self, wm):
        w = wm.attach_app_window(app_root(), "com.demo", fullscreen=False)
        assert w.offset == Offset(0, 24)

    def test_attach_fullscreen_no_offset(self, wm):
        w = wm.attach_app_window(app_root(), "com.demo", fullscreen=True)
        assert w.offset == Offset(0, 0)

    def test_same_package_replaces(self, wm):
        wm.attach_app_window(app_root(), "com.demo")
        wm.attach_app_window(app_root(), "com.demo")
        apps = [w for w in wm.windows if w.kind is WindowType.APPLICATION]
        assert len(apps) == 1

    def test_top_app_window_latest(self, wm):
        wm.attach_app_window(app_root(), "com.a")
        wm.attach_app_window(app_root(), "com.b")
        assert wm.top_app_window().package == "com.b"

    def test_screen_bounds_of_view(self, wm):
        w = wm.attach_app_window(app_root(), "com.demo", fullscreen=False)
        v = View(bounds=Rect(10, 10, 50, 50))
        w.root.add_child(v)
        assert w.screen_bounds_of(v) == Rect(10, 34, 50, 50)


class TestContainsView:
    def tree(self):
        """root > [gone > gone_leaf, invisible > invisible_leaf, leaf]"""
        root = app_root()
        views = {name: View(bounds=Rect(0, 0, 10, 10)) for name in
                 ("gone", "gone_leaf", "invisible", "invisible_leaf", "leaf")}
        views["gone"].visibility = Visibility.GONE
        views["invisible"].visibility = Visibility.INVISIBLE
        views["gone"].add_child(views["gone_leaf"])
        views["invisible"].add_child(views["invisible_leaf"])
        for name in ("gone", "invisible", "leaf"):
            root.add_child(views[name])
        return root, views

    def test_gone_subtrees_skipped_invisible_kept(self, wm):
        root, views = self.tree()
        w = wm.attach_app_window(root, "com.demo")
        assert w.contains_view(root)
        assert not w.contains_view(views["gone"])
        assert not w.contains_view(views["gone_leaf"])
        assert w.contains_view(views["invisible"])
        assert w.contains_view(views["invisible_leaf"])
        assert w.contains_view(views["leaf"])
        assert not w.contains_view(View(bounds=Rect(0, 0, 10, 10)))
        assert wm.window_of(views["invisible_leaf"]) is w
        assert wm.window_of(views["gone_leaf"]) is None

    def test_agrees_with_iter_tree(self, wm):
        root, views = self.tree()
        w = wm.attach_app_window(root, "com.demo")
        for view in [root, *views.values()]:
            assert w.contains_view(view) == any(
                v is view for v in root.iter_tree())

    def test_gone_root_contains_nothing(self, wm):
        root, views = self.tree()
        root.visibility = Visibility.GONE
        w = wm.attach_app_window(root, "com.demo")
        assert not any(w.contains_view(v) for v in [root, *views.values()])


class TestOverlays:
    def test_add_view_inherits_app_insets(self, wm):
        wm.attach_app_window(app_root(), "com.demo", fullscreen=False)
        deco = View(bounds=Rect(0, 0, 1, 1))
        overlay = wm.add_view(deco, LayoutParams(x=100, y=200, width=30, height=30),
                              package="org.repro.darpa")
        assert overlay.offset == Offset(0, 24)
        assert deco.bounds == Rect(100, 200, 30, 30)

    def test_add_view_over_fullscreen_app(self, wm):
        wm.attach_app_window(app_root(), "com.demo", fullscreen=True)
        overlay = wm.add_view(View(bounds=Rect(0, 0, 1, 1)),
                              LayoutParams(), package="org.repro.darpa")
        assert overlay.offset == Offset(0, 0)

    def test_remove_view(self, wm):
        wm.attach_app_window(app_root(), "com.demo")
        deco = View(bounds=Rect(0, 0, 1, 1))
        wm.add_view(deco, LayoutParams(width=1, height=1), "org.repro.darpa")
        assert wm.remove_view(deco)
        assert wm.overlays() == []

    def test_remove_unknown_view_false(self, wm):
        assert not wm.remove_view(View(bounds=Rect(0, 0, 1, 1)))

    def test_remove_windows_of_package(self, wm):
        wm.attach_app_window(app_root(), "com.demo")
        wm.add_view(View(bounds=Rect(0, 0, 1, 1)), LayoutParams(), "org.repro.darpa")
        wm.add_view(View(bounds=Rect(0, 0, 1, 1)), LayoutParams(), "org.repro.darpa")
        assert wm.remove_windows_of("org.repro.darpa") == 2


class TestLocationOnScreen:
    """The anchor-view calibration mechanism (paper Fig. 4)."""

    def test_anchor_at_origin_reports_window_offset(self, wm):
        wm.attach_app_window(app_root(), "com.demo", fullscreen=False)
        anchor = View(bounds=Rect(0, 0, 1, 1))
        wm.add_view(anchor, LayoutParams(x=0, y=0, width=1, height=1),
                    "org.repro.darpa")
        assert wm.get_location_on_screen(anchor) == Offset(0, 24)

    def test_anchor_fullscreen_reports_zero(self, wm):
        wm.attach_app_window(app_root(), "com.demo", fullscreen=True)
        anchor = View(bounds=Rect(0, 0, 1, 1))
        wm.add_view(anchor, LayoutParams(x=0, y=0, width=1, height=1),
                    "org.repro.darpa")
        assert wm.get_location_on_screen(anchor) == Offset(0, 0)

    def test_detached_view_raises(self, wm):
        with pytest.raises(ValueError):
            wm.get_location_on_screen(View(bounds=Rect(0, 0, 1, 1)))


class TestDispatchClick:
    def test_click_routed_to_app_view(self, wm):
        root = app_root()
        clicks = []
        btn = View(bounds=Rect(100, 100, 50, 50), clickable=True,
                   on_click=lambda: clicks.append("btn"))
        root.add_child(btn)
        wm.attach_app_window(root, "com.demo", fullscreen=False)
        # Screen coords: window offset (0, 24) applies.
        hit = wm.dispatch_click(125, 149)
        assert hit is btn and clicks == ["btn"]

    def test_click_on_status_bar_misses_app(self, wm):
        root = app_root()
        btn = View(bounds=Rect(0, 0, 360, 20), clickable=True)
        root.add_child(btn)
        wm.attach_app_window(root, "com.demo", fullscreen=False)
        # y=10 is inside the status bar; app window starts at y=24.
        # Window-local y would be -14 -> miss... but the root spans
        # negative? No: bounds start at 0, so -14 misses.
        assert wm.dispatch_click(180, 10) is None

    def test_topmost_window_wins(self, wm):
        under_clicks, over_clicks = [], []
        root = app_root()
        root.clickable = True
        root.on_click = lambda: under_clicks.append(1)
        wm.attach_app_window(root, "com.demo", fullscreen=True)
        over = View(bounds=Rect(0, 0, 1, 1), clickable=True,
                    on_click=lambda: over_clicks.append(1))
        wm.add_view(over, LayoutParams(x=100, y=100, width=50, height=50),
                    "org.repro.darpa")
        wm.dispatch_click(120, 120)
        assert over_clicks == [1] and under_clicks == []
