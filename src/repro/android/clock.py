"""A millisecond-resolution simulated clock.

Everything time-dependent in the substrate — event timestamps, the
debounce cut-off ``ct``, app timelines, performance accounting — reads
this clock.  Simulations advance it explicitly, which keeps every run
deterministic and lets tests fast-forward through "one minute with
Monkey" instantly.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Tuple

#: Cancelled heap entries tolerated beyond the live timer count before
#: :meth:`SimulatedClock.cancel` compacts the heap.
_SLACK = 64


class SimulatedClock:
    """Monotonic simulated time in milliseconds, with scheduled callbacks.

    Timers fire in ``(due, handle)`` order, so ties fire in schedule
    order.  Sessions book a whole run up front and then advance once,
    so pending timers live in a min-heap of ``(due, handle)`` next to a
    ``handle -> callback`` dict.  ``cancel`` only drops the dict entry;
    the dead heap entry is skipped when it reaches the top, and the
    heap is compacted once dead entries outnumber live ones by more
    than ``_SLACK``.
    """

    def __init__(self, start_ms: float = 0.0):
        if math.isnan(start_ms):
            raise ValueError("start time must not be NaN")
        self._now = float(start_ms)
        self._heap: List[Tuple[float, int]] = []
        self._callbacks: Dict[int, Callable[[], None]] = {}
        self._timer_seq = 0

    @property
    def now_ms(self) -> float:
        return self._now

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> int:
        """Run ``callback`` once, ``delay_ms`` from now; returns a handle."""
        if not delay_ms >= 0:
            raise ValueError("cannot schedule in the past" if delay_ms < 0
                             else "timer delay must not be NaN")
        self._timer_seq += 1
        handle = self._timer_seq
        heappush(self._heap, (self._now + delay_ms, handle))
        self._callbacks[handle] = callback
        return handle

    def cancel(self, handle: int) -> bool:
        """Cancel a scheduled callback; returns True when it was pending."""
        live = self._callbacks
        if live.pop(handle, None) is None:
            return False
        heap = self._heap
        if len(heap) > 2 * len(live) + _SLACK:
            # In place: an advance() further up the stack holds this list.
            heap[:] = [entry for entry in heap if entry[1] in live]
            heapify(heap)
        return True

    def advance(self, delta_ms: float) -> None:
        """Move time forward, firing due callbacks in timestamp order."""
        if not delta_ms >= 0:
            raise ValueError("time cannot go backwards" if delta_ms < 0
                             else "time step must not be NaN")
        target = self._now + delta_ms
        heap = self._heap
        live = self._callbacks
        while heap and heap[0][0] <= target:
            due, handle = heappop(heap)
            callback = live.pop(handle, None)
            if callback is None:
                continue
            # Callbacks observe the time they fire at, and may schedule
            # further timers (which this loop will also honour if due).
            if due > self._now:
                self._now = due
            callback()
        self._now = target

    def pending_timers(self) -> int:
        return len(self._callbacks)
