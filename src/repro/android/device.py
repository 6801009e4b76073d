"""The simulated device: clock, screen, windows, event bus, cost model.

``Device`` wires the substrate together and carries the SoloPi-like
performance meter.  The meter converts *counted work* — accessibility
events delivered, screenshots taken, model inferences run, decorations
drawn — into the CPU/memory/frame-rate/power figures of the paper's
Tables VII and VIII through one set of declared calibration constants
(:class:`DeviceProfile`), held once in :data:`PROFILE`.  Nothing in the
overhead tables is hard-coded; changing the workload changes the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.android.clock import SimulatedClock
from repro.android.events import AccessibilityEvent, AccessibilityEventType
from repro.android.window import Screen, WindowManager


class PerfOp(Enum):
    """Billable operations the meter counts."""

    EVENT_DELIVERED = "event_delivered"
    SCREENSHOT = "screenshot"
    INFERENCE = "inference"
    #: Degraded-mode heuristic pass (FraudDroid fallback while the
    #: detector circuit breaker is open) — metadata only, no CNN.
    FALLBACK_INFERENCE = "fallback_inference"
    CACHE_PROBE = "cache_probe"
    DECORATION = "decoration"
    APP_FRAME = "app_frame"

    #: Members hash by identity, in C: ``PerfMeter.record`` looks one up
    #: per charge, and ``Enum``'s own ``__hash__`` is Python code.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class DeviceProfile:
    """Calibration constants of a Redmi-10-class device.

    Baselines reproduce the paper's measured idle-with-apps workload
    (Table VII row 1); per-operation costs are the model — they were
    fitted once so that DARPA's default workload (200 ms cut-off over
    the Table VI app corpus) lands near the paper's overhead rows, and
    are *never* adjusted per experiment.
    """

    # Baseline workload of the foreground apps themselves.
    baseline_cpu_pct: float = 55.22
    baseline_memory_mb: float = 4291.96
    baseline_fps: float = 81.0
    baseline_power_mw: float = 443.85

    # CPU-milliseconds charged per operation.  The inference figure is
    # the full-screen capture -> preprocess -> CNN forward path on a
    # Redmi-10-class ARM CPU.
    event_cpu_ms: float = 0.3
    screenshot_cpu_ms: float = 30.0
    inference_cpu_ms: float = 100.0
    decoration_cpu_ms: float = 3.0
    # Fingerprinting a settled frame and probing the detection cache
    # (one grid average-pool + hash lookup; no CNN).
    cache_probe_cpu_ms: float = 2.0
    # One FraudDroid-style heuristic pass over the hierarchy dump
    # (string matching + placement rules; runs while the detector
    # breaker is open).
    fallback_cpu_ms: float = 6.0

    # Resident memory charged while components are loaded (MB).
    monitoring_memory_mb: float = 60.2
    model_memory_mb: float = 55.4
    decoration_memory_mb: float = 6.3
    # Transient working set of in-flight screenshot buffers, charged per
    # screenshot-per-minute of sustained capture rate.
    screenshot_memory_mb_per_min: float = 0.45

    # Power charged per operation (milliwatt-seconds = millijoules).
    event_power_mj: float = 0.16
    screenshot_power_mj: float = 25.0
    inference_power_mj: float = 110.0
    cache_probe_power_mj: float = 1.5
    fallback_power_mj: float = 4.0
    decoration_power_mj: float = 2.0

    # Frame-rate penalty: every main-thread CPU-ms stolen per second of
    # wall time costs this many frames per second.
    fps_per_cpu_ms_per_s: float = 0.075
    # Decoration redraws additionally contend with the render thread.
    fps_decoration_penalty: float = 0.012


#: The one cost model.  The meter, the tracer and every span reader look
#: it up here at call time; none of them takes a profile of its own.
PROFILE = DeviceProfile()


@dataclass
class PerfReport:
    """Averaged SoloPi-style metrics over one measured run."""

    cpu_pct: float
    memory_mb: float
    fps: float
    power_mw: float
    counts: Dict[str, int] = field(default_factory=dict)

    def as_row(self) -> Tuple[float, float, float, float]:
        return (self.cpu_pct, self.memory_mb, self.fps, self.power_mw)


class PerfMeter:
    """Accumulates operation counts and derives averaged metrics.

    Observers (see :meth:`set_observers`) let the tracing layer mirror
    every charge without the meter knowing anything about spans: the
    hooks fire after the meter's own bookkeeping and default to None,
    so an unobserved meter costs one predicate per call.
    """

    def __init__(self):
        self._counts: Dict[PerfOp, int] = {op: 0 for op in PerfOp}
        self._components: set = set()
        self._on_record: Optional[Callable[[PerfOp, int], None]] = None
        self._on_component: Optional[Callable[[str], None]] = None
        self._on_reset: Optional[Callable[[], None]] = None

    def set_observers(
        self,
        on_record: Optional[Callable[[PerfOp, int], None]] = None,
        on_component: Optional[Callable[[str], None]] = None,
        on_reset: Optional[Callable[[], None]] = None,
    ) -> None:
        """Install (or clear) the charge/component/reset observers."""
        self._on_record = on_record
        self._on_component = on_component
        self._on_reset = on_reset

    def record(self, op: PerfOp, n: int = 1) -> None:
        if n < 0:
            raise ValueError("operation count cannot be negative")
        self._counts[op] += n
        if self._on_record is not None:
            self._on_record(op, n)

    def enable_component(self, name: str) -> None:
        """Mark a DARPA component (``monitoring`` | ``detection`` |
        ``decoration``) as resident, charging its memory."""
        allowed = {"monitoring", "detection", "decoration"}
        if name not in allowed:
            raise ValueError(f"unknown component {name!r}; expected one of {sorted(allowed)}")
        self._components.add(name)
        if self._on_component is not None:
            self._on_component(name)

    def count(self, op: PerfOp) -> int:
        return self._counts[op]

    def counts(self) -> Dict[str, int]:
        """Current totals keyed by op value (read-only copy)."""
        return {op.value: c for op, c in self._counts.items()}

    def components(self) -> set:
        return set(self._components)

    def reset(self) -> None:
        self._counts = {op: 0 for op in PerfOp}
        self._components = set()
        if self._on_reset is not None:
            self._on_reset()

    def report(self, duration_ms: float) -> PerfReport:
        """Averaged metrics over a run of ``duration_ms``."""
        if duration_ms <= 0:
            raise ValueError("duration must be positive")
        p = PROFILE
        seconds = duration_ms / 1000.0

        cpu_ms = (
            self._counts[PerfOp.EVENT_DELIVERED] * p.event_cpu_ms
            + self._counts[PerfOp.SCREENSHOT] * p.screenshot_cpu_ms
            + self._counts[PerfOp.INFERENCE] * p.inference_cpu_ms
            + self._counts[PerfOp.FALLBACK_INFERENCE] * p.fallback_cpu_ms
            + self._counts[PerfOp.CACHE_PROBE] * p.cache_probe_cpu_ms
            + self._counts[PerfOp.DECORATION] * p.decoration_cpu_ms
        )
        cpu_pct = p.baseline_cpu_pct + cpu_ms / duration_ms * 100.0

        memory_mb = p.baseline_memory_mb
        if "monitoring" in self._components:
            memory_mb += p.monitoring_memory_mb
        if "detection" in self._components:
            memory_mb += p.model_memory_mb
        if "decoration" in self._components:
            memory_mb += p.decoration_memory_mb
        shots_per_min = self._counts[PerfOp.SCREENSHOT] / (duration_ms / 60_000.0)
        memory_mb += shots_per_min * p.screenshot_memory_mb_per_min

        cpu_ms_per_s = cpu_ms / seconds if seconds > 0 else 0.0
        fps = p.baseline_fps - cpu_ms_per_s * p.fps_per_cpu_ms_per_s
        fps -= self._counts[PerfOp.DECORATION] / seconds * p.fps_decoration_penalty * p.baseline_fps
        fps = max(1.0, fps)

        power_mj = (
            self._counts[PerfOp.EVENT_DELIVERED] * p.event_power_mj
            + self._counts[PerfOp.SCREENSHOT] * p.screenshot_power_mj
            + self._counts[PerfOp.INFERENCE] * p.inference_power_mj
            + self._counts[PerfOp.FALLBACK_INFERENCE] * p.fallback_power_mj
            + self._counts[PerfOp.CACHE_PROBE] * p.cache_probe_power_mj
            + self._counts[PerfOp.DECORATION] * p.decoration_power_mj
        )
        power_mw = p.baseline_power_mw + power_mj / seconds

        return PerfReport(
            cpu_pct=cpu_pct,
            memory_mb=memory_mb,
            fps=fps,
            power_mw=power_mw,
            counts={op.value: c for op, c in self._counts.items()},
        )


class Device:
    """One simulated phone: the root object of any runtime experiment."""

    #: Android 11 — the first release whose AccessibilityService exposes
    #: ``takeScreenshot`` (the paper's minimum supported version).
    DEFAULT_API_LEVEL = 30

    def __init__(
        self,
        screen: Optional[Screen] = None,
        api_level: int = DEFAULT_API_LEVEL,
        seed: int = 0,
    ):
        self.screen = screen or Screen()
        self.clock = SimulatedClock()
        self.window_manager = WindowManager(self.screen)
        self.perf = PerfMeter()
        self.api_level = api_level
        self.rng = np.random.default_rng(seed)
        self._listeners: List[Tuple[int, Callable[[AccessibilityEvent], None]]] = []
        self._event_log: List[AccessibilityEvent] = []

    # -- event bus ------------------------------------------------------

    def register_event_listener(
        self,
        mask: int,
        callback: Callable[[AccessibilityEvent], None],
    ) -> None:
        """Subscribe a callback to accessibility events matching ``mask``."""
        self._listeners.append((mask, callback))

    def unregister_event_listener(
        self, callback: Callable[[AccessibilityEvent], None]
    ) -> bool:
        """Remove a subscribed callback; True when it was registered.

        Matched by equality, not identity: a bound method like
        ``service._receive`` is a fresh object on every attribute
        access, but compares equal across accesses.
        """
        for i, (_, registered) in enumerate(self._listeners):
            if registered == callback:
                del self._listeners[i]
                return True
        return False

    def emit_event(
        self,
        event_type: AccessibilityEventType,
        package: str,
        window_id: Optional[int] = None,
    ) -> AccessibilityEvent:
        """The OS announces a UI change to every subscribed service."""
        event = AccessibilityEvent(
            event_type=event_type,
            package=package,
            timestamp_ms=self.clock.now_ms,
            window_id=window_id,
        )
        self._event_log.append(event)
        self._dispatch(event)
        return event

    def _dispatch(self, event: AccessibilityEvent) -> None:
        """Deliver one logged event to matching listeners.

        Split from :meth:`emit_event` so fault-injecting subclasses
        (:class:`repro.android.faults.FaultyDevice`) can drop, duplicate
        or storm deliveries without touching the event log.
        """
        for mask, callback in self._listeners:
            if mask & event.event_type:
                callback(event)

    @property
    def event_log(self) -> List[AccessibilityEvent]:
        return list(self._event_log)

    def clear_event_log(self) -> None:
        self._event_log = []
