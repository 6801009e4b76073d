"""Scripted simulated apps.

Runtime experiments (Tables VI-VIII, Figure 8) need apps that behave
like real ones: they flip between screens, fire bursts of
``TYPE_WINDOW_CONTENT_CHANGED`` while animating, occasionally pop an
AUI interstitial, and keep emitting minor UI-update events at the high
rates the paper measured (~32 events/min on Taobao just browsing).

An app is an :class:`AppSpec` — a package name, a resource-id naming
policy, and a :class:`UiTimeline` of :class:`UiStep`s.  Binding a spec
to a device yields a :class:`SimulatedApp` that schedules every step on
the device clock and logs exactly which screens were visible when,
giving experiments their ground truth for AUI coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.android.device import Device
from repro.android.events import AccessibilityEventType
from repro.android.resources import ResourceIdPolicy
from repro.android.view import SemanticRole, View


@dataclass
class ScreenState:
    """One renderable screen plus its ground-truth labels.

    ``label_boxes`` holds ``(role, rect)`` pairs in *window*
    coordinates; ``is_aui`` is True when the screen is an asymmetric
    dark UI (it then has at least an AGO box).
    """

    root: View
    fullscreen: bool = False
    is_aui: bool = False
    label_boxes: List[Tuple[str, Rect]] = field(default_factory=list)
    name: str = "screen"

    def boxes_of(self, role: str) -> List[Rect]:
        return [rect for r, rect in self.label_boxes if r == role]

    def truth_views(self) -> List[View]:
        """Views tagged AGO/UPO in the tree (for metadata baselines)."""
        out = []
        for view in self.root.iter_tree():
            if view.role in (SemanticRole.AGO, SemanticRole.UPO):
                out.append(view)
        return out


@dataclass
class UiStep:
    """Show ``screen`` at ``at_ms``, then emit follow-up content-changed
    events (animation ticks, list refreshes, carousel swaps…).

    Follow-ups come either from the uniform ``minor_updates`` /
    ``minor_spacing_ms`` pair, or — when richer rhythm is needed, e.g.
    burst-pause animations for the ct-sweep experiments — from an
    explicit ``update_offsets`` list of millisecond offsets relative to
    ``at_ms`` (which overrides the uniform pair).
    """

    at_ms: float
    screen: ScreenState
    minor_updates: int = 0
    minor_spacing_ms: float = 50.0
    update_offsets: Optional[List[float]] = None

    def offsets(self) -> List[float]:
        """Resolved follow-up event offsets (ms after ``at_ms``)."""
        if self.update_offsets is not None:
            return sorted(self.update_offsets)
        return [(i + 1) * self.minor_spacing_ms
                for i in range(self.minor_updates)]

    def last_event_ms(self) -> float:
        offs = self.offsets()
        return self.at_ms + (offs[-1] if offs else 0.0)

    def settle_time_ms(self, next_at_ms: Optional[float]) -> float:
        """Quiet time between this step's last event and the next step.

        This is what the cut-off debounce races against: a screen whose
        quiet window is shorter than ``ct`` is never screenshotted.
        """
        if next_at_ms is None:
            return float("inf")
        return max(0.0, next_at_ms - self.last_event_ms())


@dataclass
class UiTimeline:
    """An ordered sequence of steps covering one app session."""

    steps: List[UiStep]

    def __post_init__(self) -> None:
        times = [s.at_ms for s in self.steps]
        if times != sorted(times):
            raise ValueError("timeline steps must be in ascending time order")

    @property
    def duration_ms(self) -> float:
        if not self.steps:
            return 0.0
        return self.steps[-1].last_event_ms()

    def aui_steps(self) -> List[UiStep]:
        return [s for s in self.steps if s.screen.is_aui]


@dataclass
class AppSpec:
    """Static description of a simulated app."""

    package: str
    timeline: UiTimeline
    id_policy: ResourceIdPolicy = ResourceIdPolicy.READABLE
    category: str = "utility"


@dataclass
class ShownRecord:
    """Log entry: ``screen`` was foreground during [start, end)."""

    screen: ScreenState
    start_ms: float
    end_ms: float

    @property
    def dwell_ms(self) -> float:
        return self.end_ms - self.start_ms


class SimulatedApp:
    """An :class:`AppSpec` running on a :class:`Device`."""

    def __init__(self, device: Device, spec: AppSpec):
        self.device = device
        self.spec = spec
        self.current: Optional[ScreenState] = None
        self.shown_log: List[ShownRecord] = []
        self._launched = False

    def launch(self) -> None:
        """Schedule every timeline step on the device clock."""
        if self._launched:
            raise RuntimeError(f"{self.spec.package} already launched")
        self._launched = True
        now = self.device.clock.now_ms
        for step in self.spec.timeline.steps:
            delay = step.at_ms  # timeline times are relative to launch
            self.device.clock.schedule(delay, lambda s=step: self._show_step(s))
        del now

    def _show_step(self, step: UiStep) -> None:
        clock = self.device.clock
        if self.current is not None and self.shown_log:
            self.shown_log[-1].end_ms = clock.now_ms
        self.current = step.screen
        self.shown_log.append(
            ShownRecord(screen=step.screen, start_ms=clock.now_ms,
                        end_ms=float("inf"))
        )
        window = self.device.window_manager.attach_app_window(
            step.screen.root, self.spec.package, fullscreen=step.screen.fullscreen
        )
        self.device.emit_event(
            AccessibilityEventType.TYPE_WINDOW_STATE_CHANGED,
            self.spec.package, window_id=window.window_id,
        )
        self.device.emit_event(
            AccessibilityEventType.TYPE_WINDOWS_CHANGED,
            self.spec.package, window_id=window.window_id,
        )
        content_changed = partial(
            self.device.emit_event,
            AccessibilityEventType.TYPE_WINDOW_CONTENT_CHANGED,
            self.spec.package, window_id=window.window_id,
        )
        for offset in step.offsets():
            clock.schedule(offset, content_changed)

    def finish(self) -> None:
        """Close the shown log at the current clock time."""
        if self.shown_log and self.shown_log[-1].end_ms == float("inf"):
            self.shown_log[-1].end_ms = self.device.clock.now_ms

    # -- ground truth helpers -----------------------------------------

    def aui_records(self, min_dwell_ms: float = 0.0) -> List[ShownRecord]:
        """Screens that were AUIs and stayed up at least ``min_dwell_ms``."""
        return [
            rec for rec in self.shown_log
            if rec.screen.is_aui and rec.dwell_ms >= min_dwell_ms
        ]
