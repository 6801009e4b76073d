"""``DarpaService`` — the assembled runtime (paper Figure 5).

Life-cycle per settled screen:

    events -> ct debounce -> remove old decorations -> take screenshot
    -> CV detection -> rinse screenshot -> calibrate -> decorate
    (or auto-bypass the UPO)

The service is detector-agnostic: anything exposing
``detect_screen(image, conf_threshold=None) -> [ScoredBox]``
plugs in, which is how the benchmarks swap the server model, the ported
model, and test fakes through one pipeline.

The serving path is resilient by construction (see
:mod:`repro.core.resilience` and :mod:`repro.android.faults`):

- transient screenshot failures are retried on the simulated clock with
  exponential backoff + seeded jitter (a newer settled screen cancels a
  pending retry — the old frame no longer matters);
- the detector runs behind a circuit breaker; while it is open, the
  pipeline degrades to the FraudDroid metadata heuristic
  (:class:`repro.baselines.frauddroid.FraudDroidScreenDetector`);
- a per-screen watchdog deadline abandons analyses whose (simulated)
  inference overran its budget instead of stalling the event loop;
- rejected overlay mounts are absorbed per decoration.

With no faults injected, none of these paths run: the stats, records
and perf counts are bit-identical to the resilience-free pipeline,
which ``benchmarks/bench_chaos.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.geometry.nms import ScoredBox
from repro.android.accessibility import AccessibilityService
from repro.android import device as _device
from repro.android.device import Device, PerfOp
from repro.android.events import AccessibilityEvent, TYPES_ALL_MASK
from repro.android.faults import ScreenshotFailedError
from repro.baselines.frauddroid import FraudDroidScreenDetector
from repro.core.config import DarpaConfig
from repro.core.debounce import CutoffDebouncer
from repro.core.decorator import ViewDecorator
from repro.core.observability import (
    COUNTER_METRICS,
    GAUGE_METRICS,
    NULL_TRACER,
    PlanProfiler,
    Tracer,
)
from repro.core.resilience import BreakerState, CircuitBreaker, RetryPolicy
from repro.core.screencache import ScreenFingerprintCache
from repro.core.security import ScreenshotPolicy

#: Gauge encoding of the detector breaker state.
_BREAKER_GAUGE = {BreakerState.CLOSED: 0.0, BreakerState.HALF_OPEN: 1.0,
                  BreakerState.OPEN: 2.0}


class Detector(Protocol):
    """Anything that can find AUI options on a screenshot."""

    def detect_screen(self, screen_image: np.ndarray,
                      conf_threshold: Optional[float] = None
                      ) -> List[ScoredBox]: ...


@dataclass
class AnalysisRecord:
    """One settled-screen analysis."""

    timestamp_ms: float
    package: str
    detections: Sequence[ScoredBox]
    flag_threshold: float = 0.5
    #: True when the detections came from the degraded heuristic path
    #: (detector breaker open or inference crashed), not the CNN.
    degraded: bool = False

    @property
    def flagged_aui(self) -> bool:
        """Screen-level verdict: a confident UPO was found.

        The paper counts "screenshots that have UPOs"; requiring the
        flagging detection to clear a higher confidence bar than the
        box-reporting threshold suppresses benign-close false flags
        while true AUI UPOs (which the model is very sure about) pass.
        """
        return any(d.label == "UPO" and d.score >= self.flag_threshold
                   for d in self.detections)


#: CircuitBreaker listener event -> resilience counter name.
_BREAKER_EVENT_COUNTER = {
    "opened": "breaker_opened",
    "half_opened": "breaker_half_opened",
    "closed": "breaker_closed",
    "probe_success": "probe_successes",
    "probe_failure": "probe_failures",
}


@dataclass(init=False)
class DarpaStats:
    """One session's counters, gauges and analysis records.

    The evaluation section reads its numbers off these counters, and
    :meth:`metrics` exports them under the names in
    :data:`repro.core.observability.COUNTER_METRICS`.  Every field is
    run state, so the constructor takes no arguments.  Counters are
    **never reset implicitly** — not by ``DarpaService.stop()``/
    ``start()`` cycles — only by an explicit :meth:`reset` (see
    ``DarpaService.reset_stats``).
    """

    events_seen: int = 0
    screens_analyzed: int = 0
    auis_flagged: int = 0
    decorations_drawn: int = 0
    bypass_clicks: int = 0
    # Settled screens answered from the fingerprint cache (no CNN run)
    # vs. screens that went through the detector.
    cache_hits: int = 0
    cache_misses: int = 0
    # -- fault counters (all zero on a fault-free run) ------------------
    # takeScreenshot calls that raised (throttled or failed).
    screenshot_failures: int = 0
    # Backoff retries scheduled after a failed capture.
    retries: int = 0
    # Detector inferences that raised.
    detector_failures: int = 0
    # CLOSED/HALF_OPEN -> OPEN transitions of the detector breaker.
    breaker_opens: int = 0
    # Analyses answered by the FraudDroid heuristic instead of the CNN.
    fallback_detections: int = 0
    # Analyses abandoned by the per-screen watchdog deadline.
    deadline_skips: int = 0
    # Decoration overlay mounts the WindowManager refused.
    overlay_rejections: int = 0
    # -- breaker transitions (all zero on a fault-free run) -------------
    # CLOSED/HALF_OPEN -> OPEN (the edges breaker_opens counts, kept
    # here too so the resilience namespace is complete).
    breaker_opened: int = 0
    # OPEN -> HALF_OPEN cooldown expiries (a probe is now allowed).
    breaker_half_opened: int = 0
    # HALF_OPEN/OPEN -> CLOSED recoveries.
    breaker_closed: int = 0
    # Half-open probe inferences that succeeded (breaker re-closed).
    probe_successes: int = 0
    # Half-open probe inferences that failed (breaker re-opened).
    probe_failures: int = 0
    records: List[AnalysisRecord] = field(default_factory=list, repr=False)
    # -- gauges: set after every analysis, None before the first --------
    # Detector breaker: 0 closed / 1 half-open / 2 open.
    breaker_state: Optional[float] = field(default=None, compare=False)
    # Live fingerprint-cache entries (None while the cache is off).
    cache_entries: Optional[float] = field(default=None, compare=False)

    def __init__(self) -> None:
        self.reset()

    def metrics(self) -> Dict[str, Dict]:
        """Every counter, and each gauge set so far, by metric name."""
        gauges = {}
        for name, metric in GAUGE_METRICS.items():
            value = getattr(self, name)
            if value is not None:
                gauges[metric] = value
        return {"counters": {metric: getattr(self, name)
                             for name, metric in COUNTER_METRICS.items()},
                "gauges": gauges}

    def reset(self) -> None:
        """Zero every counter and drop the analysis records.

        The gauges keep their last value: they describe the breaker and
        the cache, which a reset leaves as they are.
        """
        for name in COUNTER_METRICS:
            setattr(self, name, 0)
        self.records = []


def _find_inference_plan(detector: object) -> Optional[object]:
    """Walk a detector's wrapper chain to its compiled InferencePlan.

    The serving stack nests detectors (``FaultyDetector.inner`` →
    ``MobilePort.model`` → ``TinyYolo``); the first object exposing an
    ``inference_plan()`` wins.  Returns None for plan-less detectors
    (oracles, test fakes, the metadata heuristic), for which profiling
    is simply skipped.
    """
    obj = detector
    for _ in range(4):
        plan_fn = getattr(obj, "inference_plan", None)
        if callable(plan_fn):
            return plan_fn()
        for attr in ("inner", "model"):
            nxt = getattr(obj, attr, None)
            if nxt is not None and nxt is not obj:
                obj = nxt
                break
        else:
            return None
    return None


class DarpaService:
    """The deployable unit: one device, one detector, one config."""

    def __init__(
        self,
        device: Device,
        detector: Detector,
        config: Optional[DarpaConfig] = None,
        policy: Optional[ScreenshotPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.device = device
        self.detector = detector
        self.config = config or DarpaConfig()
        self.policy = policy or ScreenshotPolicy()
        self.service = AccessibilityService(device, event_mask=TYPES_ALL_MASK)
        self.decorator = ViewDecorator(self.service)
        self.debouncer = CutoffDebouncer(
            device.clock, self.config.ct_ms, self._on_settled
        )
        self.stats = DarpaStats()
        # Tracing is opt-in and bit-inert when off: the NULL_TRACER
        # records nothing and the pipeline draws no extra randomness or
        # perf charges either way.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._plan_profiler: Optional[PlanProfiler] = None
        self._traced_plan = None
        # The fingerprint cache only makes sense over real pixels:
        # stubbed runs capture 1x1 placeholder frames that would all
        # collide on one key and replay wrong detections.
        self._screen_cache: Optional[ScreenFingerprintCache] = None
        if self.config.screen_cache_size > 0 and not self.config.stub_screenshots:
            self._screen_cache = ScreenFingerprintCache(
                capacity=self.config.screen_cache_size)
        # Resilience state: retry scheduling, the detector breaker, and
        # the degraded-mode heuristic.  All of it is inert until a
        # dependency actually fails.
        self.retry_policy = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay_ms=self.config.retry_base_delay_ms,
            max_delay_ms=self.config.retry_max_delay_ms,
            jitter_frac=self.config.retry_jitter_frac,
        )
        self.breaker = CircuitBreaker(
            device.clock,
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_ms=self.config.breaker_cooldown_ms,
            listener=self._on_breaker_transition,
        )
        self._fallback: Optional[FraudDroidScreenDetector] = None
        if self.config.fallback_to_heuristic:
            self._fallback = FraudDroidScreenDetector(device)
        # The retry-jitter stream, independent of the device RNG.
        self._retry_rng = np.random.default_rng(0)
        self._retry_timer: Optional[int] = None
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Consent check, event registration, component residency.

        Stats are cumulative across ``stop()``/``start()`` cycles —
        restarting never implicitly zeroes a counter.  Call
        :meth:`reset_stats` for an explicit fresh measurement window.
        """
        self.policy.check_startup()
        self.service.on_event = self._on_event
        if self.tracer.enabled:
            self.service.tracer = self.tracer
            self.tracer.observe_perf(self.device.perf)
        self.service.connect()
        perf = self.device.perf
        perf.enable_component("monitoring")
        perf.enable_component("detection")
        perf.enable_component("decoration")
        self._running = True

    def stop(self) -> None:
        self._cancel_retry()
        self.debouncer.cancel_pending()
        self.decorator.remove_all()
        self.service.disconnect()
        self._running = False

    def reset_stats(self, reset_perf: bool = False) -> None:
        """Zero the run counters (and optionally the device perf meter).

        This is the only way counters reset: lifecycle transitions never
        do it implicitly, so overlapping measurement windows can't
        silently lose or double-count work.  ``reset_perf=True`` also
        resets the device's cost-model meter, aligning both measurement
        surfaces on one zero point.
        """
        self.stats.reset()
        if reset_perf:
            self.device.perf.reset()

    @property
    def running(self) -> bool:
        return self._running

    @property
    def screen_cache(self) -> Optional[ScreenFingerprintCache]:
        """The fingerprint cache, or None when disabled."""
        return self._screen_cache

    @property
    def fallback_detector(self) -> Optional[FraudDroidScreenDetector]:
        """The degraded-mode heuristic, or None when disabled."""
        return self._fallback

    # -- event flow -----------------------------------------------------------

    def _on_event(self, event: AccessibilityEvent) -> None:
        if not self._running:
            return
        self.stats.events_seen += 1
        self.debouncer.feed(event)

    def _on_settled(self, event: AccessibilityEvent) -> None:
        if event.package == self.service.package:
            return  # our own overlays; never analyze ourselves
        if event.package in self.config.trusted_packages:
            return
        # The settle wait is only known in hindsight: it began at the
        # last UI event and ended just now, when the quiescence timer
        # fired — recorded retroactively as a closed `debounce` span.
        if self.tracer.enabled:
            self.tracer.emit(
                "debounce", start_ms=event.timestamp_ms,
                end_ms=self.device.clock.now_ms, package=event.package)
        # A newly settled screen supersedes any retry still pending for
        # the previous one — that frame is gone.
        self._cancel_retry()
        self._analyze(event, attempt=1)

    # -- retry scheduling -----------------------------------------------

    def _cancel_retry(self) -> None:
        if self._retry_timer is not None:
            self.device.clock.cancel(self._retry_timer)
            self._retry_timer = None

    def _schedule_retry(self, event: AccessibilityEvent, attempt: int) -> None:
        delay = self.retry_policy.delay_ms(attempt, self._retry_rng)
        self.stats.retries += 1

        def fire() -> None:
            self._retry_timer = None
            if not self._running:
                return
            self._analyze(event, attempt + 1)

        self._retry_timer = self.device.clock.schedule(delay, fire)

    # -- analysis -------------------------------------------------------

    def _analyze(self, event: AccessibilityEvent, attempt: int) -> None:
        tracer = self.tracer
        with tracer.span("analyze", package=event.package,
                         attempt=attempt) as a_span:
            self._analyze_traced(event, attempt, a_span)
        self._update_gauges()

    def _analyze_traced(self, event: AccessibilityEvent, attempt: int,
                        a_span) -> None:
        tracer = self.tracer
        # Remove previous decorations BEFORE the screenshot, so the
        # model never sees (and re-detects) our own overlays.
        self.decorator.remove_all()
        try:
            # Enter the capture-analyze-rinse context by hand so the
            # `screenshot` span brackets only the capture: the policy's
            # rinse guarantee is preserved by the finally below.
            shot_cm = self.policy.analyzed_screenshot(
                self.service, stub=self.config.stub_screenshots)
            with tracer.span("screenshot", attempt=attempt):
                shot = shot_cm.__enter__()
        except ScreenshotFailedError:
            # Transient capture failure (including OS throttling):
            # back off and retry on the clock instead of losing the
            # screen — unless the budget is exhausted.
            self.stats.screenshot_failures += 1
            retrying = attempt < self.retry_policy.max_attempts
            tracer.annotate(a_span, outcome="screenshot_failed",
                            retry_scheduled=retrying)
            if retrying:
                self._schedule_retry(event, attempt)
            return
        try:
            outcome = self._detect(shot)
        finally:
            shot_cm.__exit__(None, None, None)
        if outcome is None:
            tracer.annotate(a_span, outcome="deadline_abandoned")
            return  # watchdog abandoned the analysis
        detections, degraded = outcome
        record = AnalysisRecord(
            timestamp_ms=self.device.clock.now_ms,
            package=event.package,
            detections=detections,
            flag_threshold=self.config.flag_threshold,
            degraded=degraded,
        )
        self.stats.records.append(record)
        self.stats.screens_analyzed += 1
        flagged = record.flagged_aui
        if flagged:
            self.stats.auis_flagged += 1
        if tracer.enabled:
            tracer.annotate(a_span, outcome="ok", degraded=degraded,
                            detections=len(detections), flagged=flagged)
        if detections and self.config.decorate:
            with tracer.span("decorate",
                             detections=len(detections)) as d_span:
                if self.config.auto_bypass:
                    clicked = self.decorator.bypass(detections)
                    if clicked is not None:
                        self.stats.bypass_clicks += 1
                        tracer.annotate(d_span, bypassed=True)
                        return
                applied = self.decorator.decorate(detections)
                self.stats.decorations_drawn += len(applied)
                rejected = self.decorator.take_rejections()
                self.stats.overlay_rejections += rejected
                tracer.annotate(d_span, applied=len(applied),
                                rejected=rejected)

    def _on_breaker_transition(self, event: str, src: BreakerState,
                               dst: BreakerState) -> None:
        """Breaker listener: count the edge and mark it on the trace.

        Each transition increments its ``darpa.resilience.*`` counter
        (visible in ``repro metrics`` exports and consumable by the SLO
        engine) and emits a zero-duration ``breaker_transition`` span at
        the transition instant, so trace timelines show exactly when the
        detector was quarantined or rehabilitated.  Fault-free runs
        never transition, keeping this path bit-inert.
        """
        name = _BREAKER_EVENT_COUNTER[event]
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        now = self.device.clock.now_ms
        self.tracer.emit("breaker_transition", start_ms=now, end_ms=now,
                         event=event, from_state=src.value,
                         to_state=dst.value)

    def _update_gauges(self) -> None:
        self.stats.breaker_state = _BREAKER_GAUGE[self.breaker.state]
        if self._screen_cache is not None:
            self.stats.cache_entries = float(len(self._screen_cache))

    def _detect(self, shot) -> Optional[Tuple[Sequence[ScoredBox], bool]]:
        """Cache probe, breaker-guarded inference, degraded fallback.

        Returns ``(detections, degraded)`` or None when the watchdog
        abandoned the analysis.
        """
        tracer = self.tracer
        key: Optional[bytes] = None
        if self.config.force_degraded:
            # The daemon's load-shedding path: skip both the cache and
            # the CNN and answer from the heuristic.  The cache is
            # skipped too — degraded results are never cached, and a
            # hit here would make shed outcomes depend on whatever CNN
            # traffic happened to run earlier.
            tracer.set_attribute("forced_degraded", True)
        else:
            if self._screen_cache is not None:
                # Probe before the CNN: fingerprinting + lookup is ~2
                # CPU-ms against 100 for an inference (Table VII).
                with tracer.span("cache_probe") as c_span:
                    key = self._screen_cache.fingerprint(shot.pixels)
                    self.device.perf.record(PerfOp.CACHE_PROBE)
                    cached = self._screen_cache.get(key)
                    if tracer.enabled:
                        tracer.annotate(c_span, fingerprint=key.hex()[:16],
                                        hit=cached is not None)
                if cached is not None:
                    self.stats.cache_hits += 1
                    tracer.set_attribute("cache_hit", True)
                    return cached, False
                self.stats.cache_misses += 1
            if self.breaker.allow():
                with tracer.span("inference") as i_span:
                    if tracer.enabled:
                        tracer.annotate(
                            i_span, breaker_state=self.breaker.state.value)
                    profiler = self._attach_profiler()
                    try:
                        try:
                            detections = self.detector.detect_screen(
                                shot.pixels,
                                conf_threshold=self.config.conf_threshold)
                        finally:
                            self._detach_profiler()
                    except Exception:
                        # Any detector exception is a breaker failure;
                        # fall through to the degraded path for THIS
                        # screen too.
                        self.stats.detector_failures += 1
                        self._breaker_failure()
                        tracer.annotate(i_span, crashed=True)
                    else:
                        self.device.perf.record(PerfOp.INFERENCE)
                        elapsed = float(
                            getattr(self.detector, "last_detect_ms", 0.0)
                            or 0.0)
                        tracer.annotate(i_span, elapsed_ms=elapsed)
                        if profiler is not None and profiler.steps:
                            tracer.annotate(
                                i_span, plan_ops=profiler.attribute(
                                    _device.PROFILE.inference_cpu_ms))
                        if (self.config.deadline_ms
                                and elapsed > self.config.deadline_ms):
                            # Over budget: by the time this inference
                            # "finished" the screen has likely moved on
                            # — abandon it rather than decorate a stale
                            # frame, and treat the overrun as a failure
                            # signal for the breaker.
                            self.stats.deadline_skips += 1
                            self._breaker_failure()
                            tracer.annotate(i_span, deadline_exceeded=True)
                            return None
                        self.breaker.record_success()
                        if self._screen_cache is not None:
                            self._screen_cache.put(key, detections)
                        return detections, False
            else:
                tracer.set_attribute("breaker_open", True)
        # Breaker open (or the inference just crashed): degrade to the
        # metadata heuristic.  Degraded results are never cached — the
        # cache must not replay heuristic verdicts after recovery.
        if self._fallback is not None:
            with tracer.span("fallback") as f_span:
                detections = self._fallback.detect_screen(
                    shot.pixels, conf_threshold=self.config.conf_threshold)
                self.device.perf.record(PerfOp.FALLBACK_INFERENCE)
                self.stats.fallback_detections += 1
                tracer.annotate(f_span,
                                nodes=self._fallback.last_node_count,
                                detections=len(detections))
            return detections, True
        return (), True

    # -- plan profiling -------------------------------------------------

    def _attach_profiler(self) -> Optional[PlanProfiler]:
        """Hook the detector's compiled :class:`InferencePlan` for one
        traced inference; returns the profiler, or None when tracing is
        off or the detector exposes no plan (e.g. test fakes, oracles,
        the metadata heuristic)."""
        if not self.tracer.enabled:
            return None
        plan = _find_inference_plan(self.detector)
        if plan is None:
            return None
        if self._plan_profiler is None:
            self._plan_profiler = PlanProfiler()
        plan.profiler = self._plan_profiler
        self._traced_plan = plan
        return self._plan_profiler

    def _detach_profiler(self) -> None:
        if self._traced_plan is not None:
            self._traced_plan.profiler = None
            self._traced_plan = None

    def _breaker_failure(self) -> None:
        if self.breaker.record_failure():
            self.stats.breaker_opens += 1
