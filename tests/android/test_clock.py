"""Tests for the simulated clock."""

import pytest

from repro.android import SimulatedClock


class TestAdvance:
    def test_starts_at_given_time(self):
        assert SimulatedClock(5.0).now_ms == 5.0

    def test_advance_moves_time(self):
        clock = SimulatedClock()
        clock.advance(100)
        assert clock.now_ms == 100

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_advance_nan_rejected_and_clock_keeps_working(self):
        clock = SimulatedClock()
        fired = []
        clock.schedule(10, lambda: fired.append(clock.now_ms))
        with pytest.raises(ValueError):
            clock.advance(float("nan"))
        assert clock.now_ms == 0.0
        clock.advance(10)
        assert fired == [10.0]

    def test_nan_start_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock(float("nan"))


class TestScheduling:
    def test_callback_fires_at_due_time(self):
        clock = SimulatedClock()
        fired = []
        clock.schedule(50, lambda: fired.append(clock.now_ms))
        clock.advance(49)
        assert fired == []
        clock.advance(2)
        assert fired == [50.0]

    def test_callbacks_fire_in_timestamp_order(self):
        clock = SimulatedClock()
        order = []
        clock.schedule(30, lambda: order.append("b"))
        clock.schedule(10, lambda: order.append("a"))
        clock.schedule(60, lambda: order.append("c"))
        clock.advance(100)
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        clock = SimulatedClock()
        order = []
        clock.schedule(10, lambda: order.append(1))
        clock.schedule(10, lambda: order.append(2))
        clock.advance(20)
        assert order == [1, 2]

    def test_callback_can_schedule_followup_within_window(self):
        clock = SimulatedClock()
        fired = []

        def first():
            fired.append(("first", clock.now_ms))
            clock.schedule(5, lambda: fired.append(("second", clock.now_ms)))

        clock.schedule(10, first)
        clock.advance(20)
        assert fired == [("first", 10.0), ("second", 15.0)]

    def test_cancel_prevents_firing(self):
        clock = SimulatedClock()
        fired = []
        handle = clock.schedule(10, lambda: fired.append(1))
        assert clock.cancel(handle)
        clock.advance(20)
        assert fired == []

    def test_cancel_unknown_handle_returns_false(self):
        clock = SimulatedClock()
        assert not clock.cancel(999)

    def test_schedule_in_past_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().schedule(-5, lambda: None)

    def test_schedule_nan_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.schedule(float("nan"), lambda: None)
        assert clock.pending_timers() == 0

    def test_cancelled_timer_frees_its_tie_slot(self):
        clock = SimulatedClock()
        order = []
        first = clock.schedule(10, lambda: order.append(1))
        clock.schedule(10, lambda: order.append(2))
        assert clock.cancel(first)
        assert not clock.cancel(first)
        assert clock.pending_timers() == 1
        clock.advance(10)
        assert order == [2]
        assert clock.pending_timers() == 0

    def test_pending_timers_count(self):
        clock = SimulatedClock()
        clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        assert clock.pending_timers() == 2
        clock.advance(15)
        assert clock.pending_timers() == 1
