"""A UI/Application Exerciser Monkey.

The paper drives each app "for 1 minute with Monkey" both to harvest
screenshots for the dataset and to generate runtime workloads.  Our
Monkey injects pseudo-random taps at a configurable rate; every tap
produces the touch-interaction event pair plus (when it lands on a
clickable view) a ``TYPE_VIEW_CLICKED`` event, matching how real input
shows up on the accessibility bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.android.device import Device
from repro.android.events import AccessibilityEventType
from repro.android.view import View
from repro.scalars import uniform


@dataclass
class MonkeyTap:
    """One injected tap and what it hit."""

    at_ms: float
    x: float
    y: float
    hit_view_id: Optional[int]


class Monkey:
    """Random tap injector with a deterministic RNG."""

    def __init__(self, device: Device, seed: int = 0,
                 taps_per_second: float = 1.5):
        if taps_per_second <= 0:
            raise ValueError("taps_per_second must be positive")
        self.device = device
        self.rng = np.random.default_rng(seed)
        self.taps_per_second = taps_per_second
        self.taps: List[MonkeyTap] = []

    def _tap_once(self) -> MonkeyTap:
        screen = self.device.screen
        x = uniform(self.rng, 0, screen.width)
        y = uniform(self.rng, 0, screen.height)
        top = self.device.window_manager.top_app_window()
        package = top.package if top else "<system>"
        self.device.emit_event(
            AccessibilityEventType.TYPE_TOUCH_INTERACTION_START, package)
        hit = self.device.window_manager.dispatch_click(x, y)
        if hit is not None:
            self.device.emit_event(
                AccessibilityEventType.TYPE_VIEW_CLICKED, package)
        self.device.emit_event(
            AccessibilityEventType.TYPE_TOUCH_INTERACTION_END, package)
        tap = MonkeyTap(
            at_ms=self.device.clock.now_ms, x=x, y=y,
            hit_view_id=hit.view_id if hit is not None else None,
        )
        self.taps.append(tap)
        return tap

    def schedule_run(self, duration_ms: float) -> int:
        """Schedule taps over ``duration_ms`` on the device clock.

        Inter-tap gaps are exponential with mean ``1/taps_per_second``;
        returns the number of taps scheduled.  Advance the clock to run.
        """
        if duration_ms <= 0:
            raise ValueError("duration must be positive")
        t = 0.0
        count = 0
        mean_gap_ms = 1000.0 / self.taps_per_second
        while True:
            t += float(self.rng.exponential(mean_gap_ms))
            if t >= duration_ms:
                break
            self.device.clock.schedule(t, self._tap_once)
            count += 1
        return count
