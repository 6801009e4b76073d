"""Tests for the cut-off time debouncer."""

import pytest

from repro.android import AccessibilityEventType, SimulatedClock
from repro.android.events import AccessibilityEvent
from repro.core import CutoffDebouncer, DarpaConfig


def ui_event(clock, etype=AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED):
    return AccessibilityEvent(event_type=etype, package="com.demo",
                              timestamp_ms=clock.now_ms)


@pytest.fixture
def clock():
    return SimulatedClock()


class TestQuiescence:
    def test_fires_after_quiet_period(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 200, fired.append)
        deb.feed(ui_event(clock))
        clock.advance(199)
        assert fired == []
        clock.advance(2)
        assert len(fired) == 1

    def test_new_event_restarts_window(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 200, fired.append)
        deb.feed(ui_event(clock))
        clock.advance(150)
        deb.feed(ui_event(clock))  # restart
        clock.advance(150)
        assert fired == []  # only 150ms since last event
        clock.advance(60)
        assert len(fired) == 1

    def test_burst_collapses_to_one_analysis(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 200, fired.append)
        for _ in range(20):
            deb.feed(ui_event(clock))
            clock.advance(50)  # continuous animation, never settles
        assert fired == []
        clock.advance(200)
        assert len(fired) == 1

    def test_fires_once_per_settlement(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 100, fired.append)
        deb.feed(ui_event(clock))
        clock.advance(500)
        assert len(fired) == 1
        clock.advance(500)
        assert len(fired) == 1  # no re-fire without new events

    def test_zero_ct_fires_at_the_same_timestamp(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 0, fired.append)
        deb.feed(ui_event(clock))
        # ct == 0 defers through a zero-delay timer (never synchronously
        # inside event delivery); it fires on the next advance, at the
        # feed timestamp.
        assert fired == []
        assert deb.pending
        clock.advance(0)
        assert len(fired) == 1
        assert fired[0].timestamp_ms == clock.now_ms

    def test_zero_ct_callback_feeding_events_does_not_recurse(self, clock):
        # Regression: _fire used to run synchronously inside feed() when
        # ct == 0, so a settled callback that fed events re-entered the
        # debouncer and recursed.
        fired = []
        deb = CutoffDebouncer(clock, 0, lambda e: None)

        def settled(event):
            fired.append(event)
            if len(fired) < 5:
                deb.feed(ui_event(clock))  # re-entrant feed from callback

        deb.on_settled = settled
        deb.feed(ui_event(clock))
        clock.advance(0)  # drains the whole chain of zero-delay fires
        assert len(fired) == 5
        assert not deb.pending

    def test_callback_receives_latest_event(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 100, fired.append)
        e1 = ui_event(clock)
        deb.feed(e1)
        clock.advance(50)
        e2 = ui_event(clock)
        deb.feed(e2)
        clock.advance(150)
        assert fired == [e2]

    def test_negative_ct_rejected(self, clock):
        with pytest.raises(ValueError):
            CutoffDebouncer(clock, -1, lambda e: None)

    def test_nan_ct_rejected(self, clock):
        # NaN passes a ``ct < 0`` check, and then no screen ever settles.
        with pytest.raises(ValueError):
            CutoffDebouncer(clock, float("nan"), lambda e: None)

    def test_nan_ct_rejected_by_config(self):
        with pytest.raises(ValueError):
            DarpaConfig(ct_ms=float("nan"))


class TestNonUiEvents:
    def test_non_ui_events_do_not_arm_timer(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 100, fired.append)
        deb.feed(ui_event(clock, AccessibilityEventType.TYPE_TOUCH_INTERACTION_START))
        clock.advance(500)
        assert fired == []
        assert deb.events_seen == 1

    def test_non_ui_events_do_not_restart_window(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 100, fired.append)
        deb.feed(ui_event(clock))
        clock.advance(60)
        deb.feed(ui_event(clock, AccessibilityEventType.TYPE_TOUCH_INTERACTION_END))
        clock.advance(60)
        assert len(fired) == 1  # 120ms of UI quiet despite the touch event


class TestBookkeeping:
    def test_counts(self, clock):
        deb = CutoffDebouncer(clock, 100, lambda e: None)
        for _ in range(3):
            deb.feed(ui_event(clock))
            clock.advance(300)
        assert deb.events_seen == 3
        assert deb.settled_count == 3

    def test_cancel_pending(self, clock):
        fired = []
        deb = CutoffDebouncer(clock, 100, fired.append)
        deb.feed(ui_event(clock))
        assert deb.pending
        assert deb.cancel_pending()
        clock.advance(500)
        assert fired == []
        assert not deb.cancel_pending()  # nothing left to cancel
