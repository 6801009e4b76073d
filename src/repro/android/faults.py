"""Deterministic fault injection for the simulated Android substrate.

A phone is a hostile runtime: ``takeScreenshot`` is rate-limited by the
OS and fails under memory pressure, accessibility events get dropped or
delivered in storms, the overlay permission can be revoked mid-run, and
the on-device detector competes for CPU.  This module injects exactly
those faults into the simulated device — seeded, and clocked off the
:class:`~repro.android.clock.SimulatedClock` — so every chaos run is
bit-for-bit reproducible and the resilience layer
(:mod:`repro.core.resilience`) can be tested against realistic failure
schedules instead of hand-placed exceptions.

Layout:

- :class:`FaultPlan` — the frozen, seeded description of *what* to
  inject at which rates;
- :class:`FaultInjector` — the per-device runtime that draws the
  injection decisions and counts what it injected;
- :class:`FaultyDevice` — a :class:`~repro.android.device.Device` whose
  event dispatch drops, duplicates, or storms deliveries;
- :class:`FaultyDetector` — wraps any ``Detector`` with injected
  crashes and simulated latency spikes.

The error taxonomy mirrors what real Android surfaces would raise:
``ScreenshotThrottledError`` is the ``takeScreenshot`` interval limit
(``ERROR_TAKE_SCREENSHOT_INTERVAL_TIME_SHORT``), ``OverlayRejectedError``
the ``BadTokenException`` after a ``SYSTEM_ALERT_WINDOW`` revocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.android.clock import SimulatedClock
from repro.android.device import Device


class InjectedFault(RuntimeError):
    """Base class of every injectable failure."""


class ScreenshotFailedError(InjectedFault):
    """A transient ``takeScreenshot`` failure (capture did not complete)."""


class ScreenshotThrottledError(ScreenshotFailedError):
    """The OS rate limit rejected a capture taken too soon after the
    previous one (a fast-fail: no capture work was performed)."""


class OverlayRejectedError(InjectedFault):
    """The WindowManager refused an overlay mount (permission revoked
    mid-run — Android's ``BadTokenException``)."""


class DetectorCrashError(InjectedFault):
    """The on-device detector raised mid-inference."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative chaos schedule.

    All rates are per-opportunity probabilities in ``[0, 1]``; the
    default plan injects nothing.  Two runs with the same plan, fleet,
    and seeds observe the identical fault sequence.
    """

    seed: int = 0
    #: Probability one ``takeScreenshot`` call fails after doing its
    #: capture work (the buffer is lost; the cost is still charged).
    screenshot_failure_rate: float = 0.0
    #: OS rate limit: captures closer together than this are rejected
    #: with :class:`ScreenshotThrottledError` (0 disables).
    screenshot_min_interval_ms: float = 0.0
    #: Probability an emitted accessibility event is never delivered.
    event_drop_rate: float = 0.0
    #: Probability an event is delivered twice (bus duplication).
    event_duplicate_rate: float = 0.0
    #: Probability an event fans out into a storm of
    #: :attr:`event_storm_size` identical deliveries.
    event_storm_rate: float = 0.0
    event_storm_size: int = 6
    #: Probability an overlay mount is rejected.
    overlay_rejection_rate: float = 0.0
    #: Probability the wrapped detector raises :class:`DetectorCrashError`.
    detector_failure_rate: float = 0.0
    #: Probability an inference takes :attr:`detector_spike_ms` longer
    #: than its :attr:`detector_base_ms` budget (CPU contention spike).
    detector_spike_rate: float = 0.0
    detector_spike_ms: float = 400.0
    detector_base_ms: float = 100.0
    # -- daemon-facing worker faults (see repro.core.daemon) -----------
    #: Probability a shared inference worker stalls before executing one
    #: coalesced batch; the batch still executes, but completes
    #: :attr:`worker_stall_ms` late on the simulated clock.
    worker_stall_rate: float = 0.0
    worker_stall_ms: float = 3000.0
    #: Probability a worker crashes before executing a batch: the batch
    #: never runs, its sessions must be re-enqueued (without re-counting
    #: their telemetry), and the worker is back after
    #: :attr:`worker_restart_ms`.
    worker_crash_rate: float = 0.0
    worker_restart_ms: float = 5000.0

    def __post_init__(self) -> None:
        for name in ("screenshot_failure_rate", "event_drop_rate",
                     "event_duplicate_rate", "event_storm_rate",
                     "overlay_rejection_rate", "detector_failure_rate",
                     "detector_spike_rate", "worker_stall_rate",
                     "worker_crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.screenshot_min_interval_ms < 0:
            raise ValueError("screenshot_min_interval_ms cannot be negative")
        if self.event_storm_size < 1:
            raise ValueError("event_storm_size must be >= 1")
        if self.detector_spike_ms < 0 or self.detector_base_ms < 0:
            raise ValueError("detector latencies cannot be negative")
        if self.worker_stall_ms < 0 or self.worker_restart_ms < 0:
            raise ValueError("worker delays cannot be negative")

    @property
    def is_null(self) -> bool:
        """True when this plan injects nothing at all."""
        return (
            self.screenshot_failure_rate == 0.0
            and self.screenshot_min_interval_ms == 0.0
            and self.event_drop_rate == 0.0
            and self.event_duplicate_rate == 0.0
            and self.event_storm_rate == 0.0
            and self.overlay_rejection_rate == 0.0
            and self.detector_failure_rate == 0.0
            and self.detector_spike_rate == 0.0
            and self.worker_stall_rate == 0.0
            and self.worker_crash_rate == 0.0
        )


#: The no-op plan: a FaultyDevice built with it behaves bit-identically
#: to a plain Device (no RNG draws, no counters, no exceptions).
NULL_PLAN = FaultPlan()


class FaultInjector:
    """Draws one device's injection decisions from a dedicated stream.

    The injector owns its own ``default_rng(plan.seed)`` so chaos never
    perturbs the device RNG (rendering noise, Monkey taps) — a plan
    with all rates at zero leaves every other random stream untouched.
    Decisions that cannot fire (rate 0) draw nothing, which keeps the
    null plan free of even dead RNG consumption.
    """

    COUNTER_KEYS = (
        "screenshots_throttled", "screenshots_failed", "events_dropped",
        "events_duplicated", "event_storms", "overlays_rejected",
        "detector_crashes", "latency_spikes", "worker_stalls",
        "worker_crashes",
    )

    def __init__(self, plan: FaultPlan, clock: SimulatedClock):
        self.plan = plan
        self.clock = clock
        self.rng = np.random.default_rng(plan.seed)
        self.counts: Dict[str, int] = {k: 0 for k in self.COUNTER_KEYS}
        self._last_shot_ms: Optional[float] = None

    def _hit(self, rate: float) -> bool:
        return rate > 0.0 and float(self.rng.random()) < rate

    # -- screenshots ----------------------------------------------------

    def check_screenshot_throttle(self) -> None:
        """Enforce the OS capture interval; fast-fails before any work."""
        interval = self.plan.screenshot_min_interval_ms
        if interval <= 0:
            return
        now = self.clock.now_ms
        if (self._last_shot_ms is not None
                and now - self._last_shot_ms < interval):
            self.counts["screenshots_throttled"] += 1
            raise ScreenshotThrottledError(
                f"takeScreenshot throttled: {now - self._last_shot_ms:.0f}ms "
                f"since previous capture (minimum {interval:.0f}ms)")
        self._last_shot_ms = now

    def check_screenshot_failure(self) -> None:
        """Maybe lose the capture *after* the work was done."""
        if self._hit(self.plan.screenshot_failure_rate):
            self.counts["screenshots_failed"] += 1
            raise ScreenshotFailedError("injected screenshot capture failure")

    # -- events ---------------------------------------------------------

    def event_copies(self) -> int:
        """How many times to deliver the next event (0 = dropped)."""
        plan = self.plan
        if self._hit(plan.event_drop_rate):
            self.counts["events_dropped"] += 1
            return 0
        if self._hit(plan.event_storm_rate):
            self.counts["event_storms"] += 1
            return plan.event_storm_size
        if self._hit(plan.event_duplicate_rate):
            self.counts["events_duplicated"] += 1
            return 2
        return 1

    # -- overlays -------------------------------------------------------

    def check_overlay(self) -> None:
        if self._hit(self.plan.overlay_rejection_rate):
            self.counts["overlays_rejected"] += 1
            raise OverlayRejectedError(
                "overlay mount rejected (SYSTEM_ALERT_WINDOW revoked)")

    # -- detector -------------------------------------------------------

    def check_detector(self) -> None:
        if self._hit(self.plan.detector_failure_rate):
            self.counts["detector_crashes"] += 1
            raise DetectorCrashError("injected detector crash")

    def detector_latency_ms(self) -> float:
        """Simulated duration of one inference (base, or base + spike)."""
        if self._hit(self.plan.detector_spike_rate):
            self.counts["latency_spikes"] += 1
            return self.plan.detector_base_ms + self.plan.detector_spike_ms
        return self.plan.detector_base_ms

    # -- daemon workers -------------------------------------------------

    def worker_batch_fault(self) -> Tuple[str, float]:
        """Fault decision for one coalesced inference batch.

        Drawn by the daemon scheduler at batch-formation time, BEFORE
        any session in the batch executes, so a crashed batch can be
        re-enqueued without having touched any telemetry.  Returns
        ``(kind, delay_ms)``:

        - ``("crash", worker_restart_ms)`` — the worker died; the batch
          never ran and the worker slot is unavailable for the delay;
        - ``("stall", worker_stall_ms)`` — the batch runs, but finishes
          late by the delay (CPU starvation / GC pause);
        - ``("ok", 0.0)`` — no fault.

        The crash draw happens before the stall draw — a fixed,
        documented order so fault sequences are reproducible whatever
        combination of rates a plan sets.  Both rates at zero draw
        nothing (null plans stay bit-inert).
        """
        if self._hit(self.plan.worker_crash_rate):
            self.counts["worker_crashes"] += 1
            return "crash", self.plan.worker_restart_ms
        if self._hit(self.plan.worker_stall_rate):
            self.counts["worker_stalls"] += 1
            return "stall", self.plan.worker_stall_ms
        return "ok", 0.0


class FaultyDevice(Device):
    """A :class:`Device` whose event dispatch and capture path misbehave
    according to a :class:`FaultPlan`.

    The accessibility surface discovers the injector through the
    ``faults`` attribute (``getattr(device, "faults", None)``), so every
    other Device consumer is untouched.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, **kwargs):
        super().__init__(**kwargs)
        self.faults = FaultInjector(plan or NULL_PLAN, self.clock)

    def _dispatch(self, event) -> None:
        for _ in range(self.faults.event_copies()):
            super()._dispatch(event)


class FaultyDetector:
    """Wraps any pipeline ``Detector`` with injected crashes and latency.

    The simulated inference duration of the most recent call is exposed
    as :attr:`last_detect_ms`, which the pipeline's watchdog deadline
    (see :mod:`repro.core.pipeline`) compares against its per-screen
    budget — deterministic latency, no wall clock involved.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.last_detect_ms: float = 0.0
        self.calls = 0

    def detect_screen(self, screen_image,
                      conf_threshold: Optional[float] = None):
        self.calls += 1
        self.injector.check_detector()
        self.last_detect_ms = self.injector.detector_latency_ms()
        return self.inner.detect_screen(screen_image,
                                        conf_threshold=conf_threshold)
