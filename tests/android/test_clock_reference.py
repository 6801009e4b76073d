"""The heap clock against the original scan clock.

``_ScanClock`` below is the original :class:`SimulatedClock`: every
``advance`` step scans all pending timers, sorts the due ones by
``(due, handle)`` and rebuilds the list, and ``cancel`` is a linear
search.  :class:`SimulatedClock` keeps the timers in a min-heap with
lazy deletion instead, and must behave identically: the same fire log
``(label, now_ms)``, the same ``cancel`` results, pending counts, times
and raised exceptions, for random programs that schedule, cancel,
advance and raise from top level and from inside callbacks.
"""

import itertools
from typing import Callable, List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.android import AccessibilityEventType, SimulatedClock
from repro.android.events import AccessibilityEvent
from repro.core.debounce import CutoffDebouncer


# -- the original implementation ---------------------------------------------


class _ScanClock:
    """Monotonic simulated time in milliseconds, with scheduled callbacks."""

    def __init__(self, start_ms: float = 0.0):
        self._now = float(start_ms)
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = 0

    @property
    def now_ms(self) -> float:
        return self._now

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> int:
        """Run ``callback`` once, ``delay_ms`` from now; returns a handle."""
        if delay_ms < 0:
            raise ValueError("cannot schedule in the past")
        self._timer_seq += 1
        handle = self._timer_seq
        self._timers.append((self._now + delay_ms, handle, callback))
        return handle

    def cancel(self, handle: int) -> bool:
        """Cancel a scheduled callback; returns True when it was pending."""
        for i, (_, h, _) in enumerate(self._timers):
            if h == handle:
                del self._timers[i]
                return True
        return False

    def advance(self, delta_ms: float) -> None:
        """Move time forward, firing due callbacks in timestamp order."""
        if delta_ms < 0:
            raise ValueError("time cannot go backwards")
        target = self._now + delta_ms
        while True:
            due = [(t, h, cb) for (t, h, cb) in self._timers if t <= target]
            if not due:
                break
            due.sort(key=lambda item: (item[0], item[1]))
            t, h, cb = due[0]
            self._timers = [item for item in self._timers if item[1] != h]
            # Callbacks observe the time they fire at, and may schedule
            # further timers (which this loop will also honour if due).
            self._now = max(self._now, t)
            cb()
        self._now = target

    def pending_timers(self) -> int:
        return len(self._timers)


# -- programs ----------------------------------------------------------------
#
# A program is a list of ops; a scheduled timer carries its own op list
# (its body), run when it fires:
#   ("schedule", delay, body)   schedule a labelled timer
#   ("cancel", target)          cancel the k-th most recent handle, or a raw one
#   ("advance", delta)          advance the clock (re-entrant inside a body)
#   ("raise",)                  raise out of the current body
#   ("churn", n, delay)         n debouncer-style cancel+reschedule cycles


class _Boom(Exception):
    pass


def run_program(clock_cls, program, start_ms=0.0):
    """Everything observable about ``program`` on a ``clock_cls``."""
    clock = clock_cls(start_ms)
    log = []
    handles = []
    labels = itertools.count()

    def timer(body):
        label = next(labels)

        def fire():
            log.append(("fire", label, clock.now_ms))
            execute(body)
        return fire

    def execute(ops):
        for op in ops:
            kind = op[0]
            if kind == "schedule":
                handles.append(clock.schedule(op[1], timer(op[2])))
            elif kind == "cancel":
                which, k = op[1]
                if which == "recent":
                    handle = handles[-1 - k] if k < len(handles) else 10**9
                else:
                    handle = k
                log.append(("cancel", handle, clock.cancel(handle)))
            elif kind == "advance":
                clock.advance(op[1])
            elif kind == "raise":
                raise _Boom(len(log))
            else:
                _, n, delay = op
                handle = None
                for _ in range(n):
                    if handle is not None:
                        log.append(("cancel", handle, clock.cancel(handle)))
                    handle = clock.schedule(delay, timer([]))
                handles.append(handle)
            log.append(("state", clock.now_ms, clock.pending_timers()))

    for op in program + [("advance", 1e9)]:
        try:
            execute([op])
        except (ValueError, _Boom) as exc:
            log.append(("raised", type(exc).__name__, str(exc),
                        clock.now_ms, clock.pending_timers()))
    return log, clock.now_ms, clock.pending_timers()


delays = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 5.0, 10.0, 10.0, 40.0]),
    st.floats(0.0, 120.0, allow_nan=False),
    st.just(-1.0),
)
cancel_targets = st.one_of(
    st.tuples(st.just("recent"), st.integers(0, 6)),
    st.tuples(st.just("raw"), st.sampled_from([0, -1, 10**9])),
)


def ops(body):
    return st.one_of(
        st.tuples(st.just("schedule"), delays, body),
        st.tuples(st.just("cancel"), cancel_targets),
        st.tuples(st.just("advance"), delays),
        st.just(("raise",)),
        st.tuples(st.just("churn"), st.integers(1, 150), delays),
    )


bodies = st.recursive(
    st.just([]),
    lambda inner: st.lists(ops(inner), max_size=5),
    max_leaves=30,
)
programs = st.lists(ops(bodies), min_size=1, max_size=12)

#: A callback cancels and reschedules often enough to compact the heap
#: inside the outer advance; the timers it leaves must still fire there.
COMPACT_IN_ADVANCE = [
    ("schedule", 5.0, [("churn", 200, 1.0), ("schedule", 2.0, [])]),
    ("schedule", 10.0, []),
    ("advance", 20.0),
]
#: A re-entrant advance runs past the outer target; the outer advance
#: then sets time back to its own target.
REENTRANT = [
    ("schedule", 10.0, [("advance", 50.0), ("schedule", 0.0, [])]),
    ("schedule", 30.0, []),
    ("advance", 20.0),
    ("advance", 50.0),
]
#: A callback raises out of a re-entrant advance: the timer is gone,
#: time stays at its due time and the tied timer stays pending.
RAISING = [
    ("schedule", 10.0, [("advance", 50.0)]),
    ("schedule", 30.0, [("raise",)]),
    ("schedule", 30.0, []),
    ("advance", 20.0),
]


@given(program=programs, start=st.sampled_from([0.0, -0.0, 7.5]))
@example(program=COMPACT_IN_ADVANCE, start=0.0)
@example(program=REENTRANT, start=0.0)
@example(program=RAISING, start=0.0)
@settings(max_examples=300, deadline=None)
def test_heap_clock_matches_scan_clock(program, start):
    assert run_program(SimulatedClock, program, start) == \
        run_program(_ScanClock, program, start)


def test_pinned_programs():
    log, _, _ = run_program(SimulatedClock, REENTRANT)
    assert [entry for entry in log if entry[0] == "fire"] == [
        ("fire", 0, 10.0), ("fire", 1, 30.0), ("fire", 2, 60.0)]
    assert log[4:7] == [("state", 60.0, 0), ("state", 60.0, 1),
                        ("state", 20.0, 1)]

    log, _, _ = run_program(SimulatedClock, RAISING)
    assert log[4:7] == [("fire", 1, 30.0), ("raised", "_Boom", "5", 30.0, 1),
                        ("fire", 2, 30.0)]


def test_compaction_inside_advance_keeps_outer_loop_live():
    clock = SimulatedClock()
    fired, heap_sizes = [], []

    def churn():
        handle = None
        for _ in range(200):
            if handle is not None:
                clock.cancel(handle)
            handle = clock.schedule(
                1.0, lambda: fired.append(("churned", clock.now_ms)))
        heap_sizes.append(len(clock._heap))

    clock.schedule(5.0, churn)
    clock.schedule(10.0, lambda: fired.append(("late", clock.now_ms)))
    clock.advance(20.0)
    assert heap_sizes[0] < 100
    assert fired == [("churned", 6.0), ("late", 10.0)]
    assert clock.pending_timers() == 0


# -- bounded storage ---------------------------------------------------------


def test_cancel_reschedule_cycles_keep_heap_bounded():
    clock = SimulatedClock()
    for delay in (5.0, 500.0, 5000.0):
        clock.schedule(delay, lambda: None)
    handle = None
    for _ in range(10_000):
        if handle is not None:
            assert clock.cancel(handle)
        handle = clock.schedule(200.0, lambda: None)
        assert len(clock._heap) <= 2 * clock.pending_timers() + 128
    assert clock.pending_timers() == 4


def test_debouncer_keeps_heap_bounded():
    clock = SimulatedClock()
    settled = []
    debouncer = CutoffDebouncer(clock, 200.0, settled.append)
    event = AccessibilityEvent(
        event_type=AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED,
        package="com.demo", timestamp_ms=0.0)
    for _ in range(10_000):
        debouncer.feed(event)
        assert len(clock._heap) <= 2 * clock.pending_timers() + 128
    clock.advance(200.0)
    assert settled == [event]
    assert clock.pending_timers() == 0
