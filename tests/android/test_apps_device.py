"""Tests for simulated apps, Monkey, the perf meter, and ADB dumps."""

import enum

import numpy as np
import pytest

from repro.android import (
    AppSpec,
    Device,
    Monkey,
    PerfMeter,
    ResourceId,
    SemanticRole,
    SimulatedApp,
    UiStep,
    UiTimeline,
    View,
    dump_view_hierarchy,
)
from repro.android.apps import ScreenState
from repro.android.device import PerfOp
from repro.android.events import AccessibilityEventType
from repro.geometry import Rect
from repro.imaging.color import PALETTE


def plain_screen(name="home"):
    root = View(bounds=Rect(0, 0, 360, 568), bg_color=PALETTE["white"])
    return ScreenState(root=root, name=name)


def aui_screen():
    root = View(bounds=Rect(0, 0, 360, 568), bg_color=PALETTE["white"])
    ago = root.add_child(View(bounds=Rect(80, 250, 200, 60), clickable=True,
                              role=SemanticRole.AGO, bg_color=PALETTE["red"]))
    upo = root.add_child(View(bounds=Rect(320, 16, 20, 20), clickable=True,
                              role=SemanticRole.UPO))
    return ScreenState(
        root=root, is_aui=True, name="interstitial",
        label_boxes=[("AGO", ago.bounds), ("UPO", upo.bounds)],
    )


class TestTimeline:
    def test_steps_must_be_ordered(self):
        with pytest.raises(ValueError):
            UiTimeline([UiStep(100, plain_screen()), UiStep(50, plain_screen())])

    def test_duration_includes_minor_updates(self):
        tl = UiTimeline([UiStep(0, plain_screen()),
                         UiStep(1000, plain_screen(), minor_updates=4,
                                minor_spacing_ms=100)])
        assert tl.duration_ms == 1400

    def test_settle_time(self):
        s1 = UiStep(0, plain_screen(), minor_updates=3, minor_spacing_ms=100)
        assert s1.settle_time_ms(next_at_ms=1000) == 700
        assert s1.settle_time_ms(next_at_ms=None) == float("inf")

    def test_aui_steps_filter(self):
        tl = UiTimeline([UiStep(0, plain_screen()), UiStep(10, aui_screen())])
        assert len(tl.aui_steps()) == 1


class TestSimulatedApp:
    def make_app(self, device):
        tl = UiTimeline([
            UiStep(0, plain_screen("a")),
            UiStep(1000, aui_screen(), minor_updates=2, minor_spacing_ms=50),
            UiStep(3000, plain_screen("b")),
        ])
        return SimulatedApp(device, AppSpec(package="com.demo", timeline=tl))

    def test_launch_emits_window_events(self):
        device = Device()
        app = self.make_app(device)
        app.launch()
        device.clock.advance(100)
        types = [e.event_type for e in device.event_log]
        assert AccessibilityEventType.TYPE_WINDOW_STATE_CHANGED in types
        assert AccessibilityEventType.TYPE_WINDOWS_CHANGED in types

    def test_minor_updates_emitted(self):
        device = Device()
        app = self.make_app(device)
        app.launch()
        device.clock.advance(1200)
        content = [e for e in device.event_log
                   if e.event_type is AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED]
        assert len(content) == 2

    def test_shown_log_tracks_dwell(self):
        device = Device()
        app = self.make_app(device)
        app.launch()
        device.clock.advance(5000)
        app.finish()
        assert [r.screen.name for r in app.shown_log] == ["a", "interstitial", "b"]
        assert app.shown_log[0].dwell_ms == pytest.approx(1000)
        assert app.shown_log[1].dwell_ms == pytest.approx(2000)
        assert app.shown_log[2].dwell_ms == pytest.approx(2000)

    def test_aui_records_with_min_dwell(self):
        device = Device()
        app = self.make_app(device)
        app.launch()
        device.clock.advance(5000)
        app.finish()
        assert len(app.aui_records()) == 1
        assert app.aui_records(min_dwell_ms=2500) == []

    def test_double_launch_rejected(self):
        device = Device()
        app = self.make_app(device)
        app.launch()
        with pytest.raises(RuntimeError):
            app.launch()

    def test_window_attached_to_manager(self):
        device = Device()
        app = self.make_app(device)
        app.launch()
        device.clock.advance(10)
        assert device.window_manager.top_app_window().package == "com.demo"


class TestMonkey:
    def test_schedules_expected_tap_rate(self):
        device = Device()
        monkey = Monkey(device, seed=3, taps_per_second=2.0)
        n = monkey.schedule_run(60_000)
        assert 80 <= n <= 160  # ~120 expected

    def test_taps_emit_touch_events(self):
        device = Device()
        root = View(bounds=Rect(0, 0, 360, 568), clickable=True)
        device.window_manager.attach_app_window(root, "com.demo")
        monkey = Monkey(device, seed=3, taps_per_second=5.0)
        monkey.schedule_run(2000)
        device.clock.advance(2000)
        types = {e.event_type for e in device.event_log}
        assert AccessibilityEventType.TYPE_TOUCH_INTERACTION_START in types
        assert AccessibilityEventType.TYPE_VIEW_CLICKED in types
        assert len(monkey.taps) > 0

    def test_deterministic_given_seed(self):
        def run():
            device = Device()
            monkey = Monkey(device, seed=11, taps_per_second=3.0)
            monkey.schedule_run(5000)
            device.clock.advance(5000)
            return [(t.at_ms, t.x, t.y) for t in monkey.taps]

        assert run() == run()

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Monkey(Device(), taps_per_second=0)


class TestPerfMeter:
    def test_baseline_report(self):
        meter = PerfMeter()
        report = meter.report(60_000)
        assert report.cpu_pct == pytest.approx(55.22)
        assert report.memory_mb == pytest.approx(4291.96)
        assert report.fps == pytest.approx(81.0)
        assert report.power_mw == pytest.approx(443.85)

    def test_work_increases_cpu_and_power(self):
        meter = PerfMeter()
        meter.record(PerfOp.INFERENCE, 100)
        report = meter.report(60_000)
        assert report.cpu_pct > 55.22
        assert report.power_mw > 443.85
        assert report.fps < 81.0

    def test_components_charge_memory(self):
        meter = PerfMeter()
        meter.enable_component("monitoring")
        meter.enable_component("detection")
        report = meter.report(60_000)
        expected = 4291.96 + 60.2 + 55.4
        assert report.memory_mb == pytest.approx(expected)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            PerfMeter().enable_component("telemetry")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PerfMeter().record(PerfOp.SCREENSHOT, -1)

    def test_report_requires_positive_duration(self):
        with pytest.raises(ValueError):
            PerfMeter().report(0)

    def test_reset_clears_counts(self):
        meter = PerfMeter()
        meter.record(PerfOp.SCREENSHOT, 5)
        meter.enable_component("detection")
        meter.reset()
        report = meter.report(1000)
        assert report.memory_mb == pytest.approx(4291.96)
        assert report.counts["screenshot"] == 0

    def test_record_does_not_call_enum_hash(self, monkeypatch):
        # Every charge of every session goes through record(): its op
        # lookup must stay in C, not in Enum's Python-level __hash__.
        calls = []
        enum_hash = enum.Enum.__hash__

        def counting_hash(member):
            calls.append(member)
            return enum_hash(member)

        meter = PerfMeter()
        monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
        for op in PerfOp:
            meter.record(op, 2)
        meter.record(PerfOp.INFERENCE)
        assert calls == []
        assert meter.count(PerfOp.INFERENCE) == 3
        assert meter.counts() == {op.value: 3 if op is PerfOp.INFERENCE else 2
                                  for op in PerfOp}


class TestAdbDump:
    def test_dump_reports_screen_coords(self):
        device = Device()
        root = View(bounds=Rect(0, 0, 360, 568))
        root.add_child(View(bounds=Rect(10, 20, 30, 40), clickable=True,
                            resource_id=ResourceId("com.demo", "btn_close"),
                            text="close"))
        device.window_manager.attach_app_window(root, "com.demo",
                                                fullscreen=False)
        nodes = dump_view_hierarchy(device.window_manager)
        assert len(nodes) == 2
        child = nodes[1]
        assert child.bounds == Rect(10, 44, 30, 40)  # +24 status bar
        assert child.resource_entry == "btn_close"
        assert child.clickable and child.text == "close"

    def test_dump_excludes_overlays(self):
        device = Device()
        device.window_manager.attach_app_window(
            View(bounds=Rect(0, 0, 360, 568)), "com.demo")
        from repro.android import LayoutParams
        device.window_manager.add_view(View(bounds=Rect(0, 0, 1, 1)),
                                       LayoutParams(), "org.repro.darpa")
        nodes = dump_view_hierarchy(device.window_manager)
        assert all(n.package == "com.demo" for n in nodes)

    def test_dump_filters_by_package(self):
        device = Device()
        device.window_manager.attach_app_window(
            View(bounds=Rect(0, 0, 360, 568)), "com.a")
        device.window_manager.attach_app_window(
            View(bounds=Rect(0, 0, 360, 568)), "com.b")
        assert all(n.package == "com.a"
                   for n in dump_view_hierarchy(device.window_manager, "com.a"))

    def test_idless_view_has_empty_entry(self):
        device = Device()
        device.window_manager.attach_app_window(
            View(bounds=Rect(0, 0, 360, 568)), "com.demo")
        nodes = dump_view_hierarchy(device.window_manager)
        assert nodes[0].resource_entry == ""


class TestUpdateOffsets:
    def test_explicit_offsets_override_uniform(self):
        step = UiStep(100, plain_screen(), minor_updates=5,
                      minor_spacing_ms=10, update_offsets=[30.0, 90.0])
        assert step.offsets() == [30.0, 90.0]
        assert step.last_event_ms() == 190.0

    def test_offsets_sorted_on_resolution(self):
        step = UiStep(0, plain_screen(), update_offsets=[90.0, 30.0])
        assert step.offsets() == [30.0, 90.0]

    def test_settle_time_uses_last_offset(self):
        step = UiStep(0, plain_screen(), update_offsets=[100.0, 400.0])
        assert step.settle_time_ms(1000.0) == 600.0

    def test_app_emits_at_offsets(self):
        device = Device()
        tl = UiTimeline([UiStep(0, plain_screen(),
                                update_offsets=[50.0, 300.0])])
        app = SimulatedApp(device, AppSpec(package="com.x", timeline=tl))
        app.launch()
        device.clock.advance(1000)
        content = [e.timestamp_ms for e in device.event_log
                   if e.event_type is AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED]
        assert content == [50.0, 300.0]
