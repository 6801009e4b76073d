"""The cut-off time (``ct``) debouncer (paper Section IV-B).

Accessibility events arrive far too often to analyze each one (the
paper measures ~32/min on a shopping app just from browsing), and the
event payload never says whether a screen is an AUI.  DARPA's answer:
only analyze a screen once no further UI-update event has arrived for
``ct`` milliseconds — AUIs need dwell time to work on the user, so a
settled screen is both cheaper and more likely to matter.

``CutoffDebouncer`` implements that quiescence timer on the simulated
clock.  Every UI-update event restarts the timer; when it expires, the
registered callback fires exactly once for that settled state.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.android.clock import SimulatedClock
from repro.android.events import AccessibilityEvent


class CutoffDebouncer:
    """Fires ``on_settled`` after ``ct_ms`` of event silence."""

    def __init__(
        self,
        clock: SimulatedClock,
        ct_ms: float,
        on_settled: Callable[[AccessibilityEvent], None],
    ):
        if not ct_ms >= 0:
            raise ValueError("ct must be a non-negative number")
        self.clock = clock
        self.ct_ms = ct_ms
        self.on_settled = on_settled
        self._timer: Optional[int] = None
        self._last_event: Optional[AccessibilityEvent] = None
        self.events_seen = 0
        self.settled_count = 0

    def feed(self, event: AccessibilityEvent) -> None:
        """Offer one accessibility event to the debouncer.

        Non-UI-update events (touch bookkeeping etc.) are counted but
        do not restart the quiescence window — they don't repaint.
        """
        self.events_seen += 1
        if not event.is_ui_update():
            return
        self._last_event = event
        if self._timer is not None:
            self.clock.cancel(self._timer)
        # ct == 0 still goes through the clock (a zero-delay timer fires
        # on the next advance, at the same timestamp): firing inline
        # would run the settled callback synchronously inside event
        # delivery, and a callback that emits or feeds events would
        # re-enter feed() and recurse without bound.
        self._timer = self.clock.schedule(self.ct_ms, self._fire)

    def _fire(self) -> None:
        self._timer = None
        event, self._last_event = self._last_event, None
        if event is not None:
            self.settled_count += 1
            self.on_settled(event)

    def cancel_pending(self) -> bool:
        """Drop any armed timer (used on service shutdown)."""
        if self._timer is not None:
            self.clock.cancel(self._timer)
            self._timer = None
            self._last_event = None
            return True
        return False

    @property
    def pending(self) -> bool:
        return self._timer is not None
