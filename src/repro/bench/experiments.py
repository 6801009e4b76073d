"""Experiment drivers shared by the benchmark suite and examples.

Three layers:

- **Artifacts** — corpus/splits/datasets/trained models, memoized in
  process and (for the model) cached on disk;
- **Static evaluation** — run a detector over a rendered split and
  score it at the paper's IoU=0.9 protocol (Tables III-V);
- **Runtime fleets** — simulated 100-app sessions driven through
  ``DarpaService`` for the end-to-end comparisons and overhead studies
  (Tables VI-VIII, Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.android.apps import AppSpec, ScreenState, SimulatedApp, UiStep, UiTimeline
from repro.android.adb import dump_view_hierarchy
from repro.android.device import Device, PerfOp, PerfReport
from repro.android.faults import (
    FaultPlan,
    FaultyDetector,
    FaultyDevice,
    ScreenshotFailedError,
)
from repro.android.monkey import Monkey
from repro.android.resources import ResourceIdPolicy
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy
from repro.core.observability import (
    DROPPED_SPANS_COUNTER,
    FAULT_COUNTERS,
    Tracer,
)
from repro.datagen import build_corpus, build_non_aui_screen, build_aui_screen, split_corpus
from repro.datagen.corpus import Corpus
from repro.geometry.nms import ScoredBox
from repro.vision import (
    DetectionEvaluator,
    EvalResult,
    TinyYolo,
    YoloConfig,
    YoloTrainer,
    build_detection_dataset,
)
from repro.vision.dataset import DetectionDataset
from repro.bench.cache import default_cache

#: Default training budget for cached benchmark models.
DEFAULT_EPOCHS = 110
DEFAULT_CONF_THRESHOLD = 0.3

_corpus_memo: Dict[int, Tuple[Corpus, Dict[str, list]]] = {}
_dataset_memo: Dict[Tuple, DetectionDataset] = {}
_model_memo: Dict[Tuple, TinyYolo] = {}


def get_corpus_and_splits(seed: int = 0):
    """The corpus and its Table II splits (memoized per seed)."""
    if seed not in _corpus_memo:
        corpus = build_corpus(seed=seed)
        _corpus_memo[seed] = (corpus, split_corpus(corpus, seed=seed))
    return _corpus_memo[seed]


def get_dataset(split: str, masked: bool = False, seed: int = 0,
                keep_screen_images: bool = False) -> DetectionDataset:
    key = (split, masked, seed, keep_screen_images)
    if key not in _dataset_memo:
        _, splits = get_corpus_and_splits(seed)
        _dataset_memo[key] = build_detection_dataset(
            splits[split], masked=masked,
            keep_screen_images=keep_screen_images,
        )
    return _dataset_memo[key]


def get_test_dataset(masked: bool = False, seed: int = 0) -> DetectionDataset:
    return get_dataset("test", masked=masked, seed=seed,
                       keep_screen_images=True)


def get_trained_model(
    masked: bool = False,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    verbose: bool = False,
) -> TinyYolo:
    """The benchmark detector, trained once and cached on disk."""
    key = (masked, epochs, seed)
    if key in _model_memo:
        return _model_memo[key]
    config = YoloConfig()
    cache_key = {
        "masked": masked, "epochs": epochs, "seed": seed,
        "channels": config.channels, "input": (config.input_w, config.input_h),
        "lambda_upo": config.lambda_upo, "v": 2,
    }
    model = TinyYolo(config, seed=seed)
    cache = default_cache()

    def _train() -> Dict[str, np.ndarray]:
        train = get_dataset("train", masked=masked, seed=seed)
        trainer = YoloTrainer(model, lr=2e-3, batch_size=16, seed=seed)
        trainer.fit(train, epochs=epochs, verbose=verbose)
        return model.state_dict()

    state = cache.get_or_build("yolo", cache_key, _train)
    model.load_state_dict(state)
    _model_memo[key] = model
    return model


def evaluate_detector(
    detector,
    dataset: DetectionDataset,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    iou_threshold: float = 0.9,
    batch_size: int = 32,
) -> EvalResult:
    """Paper protocol: per-class P/R/F1 at IoU 0.9 over a split."""
    if dataset.screen_images is None:
        raise ValueError("evaluation needs keep_screen_images=True")
    evaluator = DetectionEvaluator(iou_threshold=iou_threshold)
    if hasattr(detector, "detect_screens"):
        # Batched serving path: chunks of screenshots go through one
        # plan forward each (see repro.vision.nn.infer); results are
        # bit-identical to the per-image loop below.
        for start in range(0, len(dataset), batch_size):
            images = dataset.screen_images[start:start + batch_size]
            for offset, dets in enumerate(detector.detect_screens(
                    images, conf_threshold=conf_threshold)):
                evaluator.add_image(dets, dataset.screen_labels[start + offset])
        return evaluator.result()
    for i in range(len(dataset)):
        evaluator.add_image(
            detector.detect_screen(dataset.screen_images[i],
                                   conf_threshold=conf_threshold),
            dataset.screen_labels[i])
    return evaluator.result()


# ---------------------------------------------------------------------------
# Runtime fleets
# ---------------------------------------------------------------------------

@dataclass
class FleetSession:
    """One app's scripted 60-second session plus its ground truth."""

    spec: AppSpec
    aui_screens: List[ScreenState]        # AUI screens with >= 1 UPO
    non_aui_screens: List[ScreenState]


def _burst_pause_offsets(rng: np.random.Generator,
                         slot_ms: float) -> List[float]:
    """Event offsets of an animated screen: bursts of rapid ticks
    separated by a per-screen pause.

    Real carousel/countdown UIs animate in bursts; whether a debouncer
    with cut-off ``ct`` ever captures such a screen depends on whether
    the pause exceeds ``ct`` — which is exactly the coverage-vs-ct
    trade-off Figure 8 sweeps.  The pause is drawn once per screen so
    screens with a short pause are *never* captured at large ct.
    """
    tick = float(rng.uniform(55, 190))
    pause = float(rng.uniform(60, 700))
    offsets: List[float] = []
    t = tick
    horizon = slot_ms - 20.0  # animate until the screen is replaced
    while t < horizon:
        burst_len = int(rng.integers(6, 14))
        for _ in range(burst_len):
            if t >= horizon:
                break
            offsets.append(t)
            t += tick
        t += pause
    return offsets


def _session_timeline(
    screens: List[Tuple[ScreenState, bool]],
    rng: np.random.Generator,
    duration_ms: float,
) -> UiTimeline:
    """Spread screens over the session with realistic event noise.

    Most screens emit a few settle-down ticks and go quiet; a minority
    animate in burst-pause rhythm for their whole display, which is what
    the ct sweep (Fig 8 / Table VIII) trades against.
    """
    n = len(screens)
    slot = duration_ms / n
    starts = [0.0]
    for _ in range(n - 1):
        starts.append(starts[-1] + slot * float(rng.uniform(0.85, 1.15)))
    steps: List[UiStep] = []
    for i, (state, animated) in enumerate(screens):
        at = starts[i]
        horizon = (starts[i + 1] if i + 1 < n else duration_ms) - at
        if animated:
            # Animated screens tick until they are replaced — their last
            # pre-switch gap is just another pause, so a screen whose
            # pause is below ct is never captured at that ct.
            offsets = _burst_pause_offsets(rng, horizon)
            steps.append(UiStep(at_ms=at, screen=state,
                                update_offsets=offsets))
        else:
            minor = int(rng.integers(0, 4))
            spacing = float(rng.uniform(40, 120))
            steps.append(UiStep(at_ms=at, screen=state, minor_updates=minor,
                                minor_spacing_ms=spacing))
    return UiTimeline(steps)


def build_runtime_fleet(
    n_apps: int = 100,
    seed: int = 0,
    duration_ms: float = 60_000.0,
    animated_frac: float = 0.28,
) -> List[FleetSession]:
    """Scripted sessions matching the Table VI workload: 100 apps run
    for one minute each, showing a mix of ordinary screens, benign
    dialogs and AUI interstitials."""
    corpus, _ = get_corpus_and_splits(seed)
    rng = np.random.default_rng(seed + 31)
    sample_pool = [s for s in corpus.samples if s.spec.n_upo > 0]
    sessions: List[FleetSession] = []
    for i in range(n_apps):
        app_profile = corpus.apps[i % len(corpus.apps)]
        n_aui = int(rng.integers(2, 4))       # ~2.4 AUI screens per app
        n_plain = int(rng.integers(2, 4))
        # Benign close-button dialogs are the FP bait; they are a real
        # but minority share of everyday screens.
        n_benign = int(rng.random() < 0.45)
        auis: List[ScreenState] = []
        for _ in range(n_aui):
            sample = sample_pool[int(rng.integers(0, len(sample_pool)))]
            auis.append(build_aui_screen(sample.spec,
                                         package=app_profile.package,
                                         id_policy=app_profile.id_policy))
        negatives: List[ScreenState] = []
        for k in range(n_plain + n_benign):
            negatives.append(build_non_aui_screen(
                rng, benign_close=k >= n_plain,
                package=app_profile.package,
                id_policy=app_profile.id_policy,
                fullscreen=bool(rng.integers(0, 2)),
            ))
        screens = ([(s, rng.random() < animated_frac) for s in auis]
                   + [(s, rng.random() < animated_frac) for s in negatives])
        rng.shuffle(screens)
        timeline = _session_timeline(screens, rng, duration_ms)
        sessions.append(FleetSession(
            spec=AppSpec(package=app_profile.package, timeline=timeline,
                         id_policy=app_profile.id_policy,
                         category=app_profile.category),
            aui_screens=auis,
            non_aui_screens=negatives,
        ))
    return sessions


@dataclass
class SessionResult:
    """Outcome of one DARPA-supervised session."""

    package: str
    perf: PerfReport
    events_total: int
    screens_analyzed: int
    screen_verdicts: List[Tuple[bool, bool]]  # (labeled_aui, flagged)
    frauddroid_verdicts: List[Tuple[bool, bool]] = field(default_factory=list)
    auis_shown: int = 0
    auis_flagged: int = 0
    #: The DarpaStats fault counters
    #: (:data:`~repro.core.observability.FAULT_COUNTERS`) by name.
    resilience: Dict[str, int] = field(default_factory=dict)
    #: FaultInjector counters — what the chaos plan actually injected.
    injected: Dict[str, int] = field(default_factory=dict)
    #: Exported spans (JSON-ready dicts) when the session ran with
    #: ``trace=True``; None otherwise.  The root ``session`` span plus
    #: every nested stage — :func:`repro.core.observability.report_from_spans`
    #: rebuilds :attr:`perf` from these bit-for-bit.
    spans: Optional[List[Dict]] = None
    #: Counters and gauges of a traced run: the service's
    #: ``DarpaStats.metrics()`` (none in ``baseline`` mode) plus
    #: ``darpa.trace.dropped_spans``, the spans the tracer's ring buffer
    #: evicted.  Empty when tracing was off.  Per-stage counts and costs
    #: live in :attr:`spans`.
    metrics: Dict = field(default_factory=dict)


#: DarpaConfig overrides that make the storm plan's detector faults
#: reachable: a hair-trigger breaker and a watchdog budget the injected
#: latency spikes overrun.
STORM_DARPA_KWARGS: Dict[str, float] = {
    "breaker_failure_threshold": 2,
    "deadline_ms": 250.0,
}


def storm_fault_plan(seed: int = 0) -> FaultPlan:
    """The canonical "storm" chaos plan for SLO smoke runs.

    Heavy enough that every default SLO's failure mode is reachable —
    capture failures and throttling burn the capture/reaction budgets,
    overlay rejections burn decoration success, detector crashes and
    latency spikes burn the fallback and watchdog budgets.  Pair with
    :data:`STORM_DARPA_KWARGS`.  Fully seeded: the same storm replays
    identically under any worker or shard count.
    """
    return FaultPlan(
        seed=seed,
        screenshot_failure_rate=0.3,
        screenshot_min_interval_ms=150.0,
        event_drop_rate=0.1,
        event_duplicate_rate=0.1,
        event_storm_rate=0.05,
        overlay_rejection_rate=0.25,
        detector_failure_rate=0.15,
        detector_spike_rate=0.3,
    )


class _NullDetector:
    """Detector stand-in for the monitoring-only overhead mode."""

    def detect_screen(self, screen_image, conf_threshold=None):
        return []


class OracleDetector:
    """Answers from the foreground screen's ground-truth labels.

    Used by the ct-sweep experiments (Table VIII / Figure 8), which
    measure what the *debouncer* loses — model accuracy is a separate,
    already-measured axis (Table III) and would only blur the sweep.
    """

    def __init__(self, device: Device, app: SimulatedApp):
        self.device = device
        self.app = app

    def detect_screen(self, screen_image, conf_threshold=None):
        state = self.app.current
        if state is None or not state.is_aui:
            return []
        top = self.device.window_manager.top_app_window()
        out = []
        for role, rect in state.label_boxes:
            box = rect.offset_by(top.offset) if top is not None else rect
            out.append(ScoredBox(rect=box, label=role, score=0.99))
        return out


def run_darpa_session(
    session: FleetSession,
    detector,
    ct_ms: float = 200.0,
    mode: str = "full",
    duration_ms: float = 60_000.0,
    monkey_seed: Optional[int] = None,
    frauddroid=None,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    fault_plan: Optional[FaultPlan] = None,
    darpa_kwargs: Optional[Dict] = None,
    trace: bool = False,
) -> SessionResult:
    """Replay one session under a DARPA configuration.

    ``mode`` decomposes overhead as Table VII does: ``baseline`` (no
    DARPA), ``monitor`` (events + screenshots only), ``detect``
    (+model), ``full`` (+decoration).

    ``fault_plan`` runs the session on a :class:`FaultyDevice`; the
    per-session injector is re-seeded off the global fleet index (via
    ``monkey_seed``) so chaos runs stay deterministic under any worker
    or shard count.  ``darpa_kwargs`` forwards extra
    :class:`DarpaConfig` fields (e.g. ``deadline_ms``,
    ``breaker_failure_threshold``) to the service.

    ``trace=True`` runs the whole session under a
    :class:`~repro.core.observability.Tracer`: the result carries the
    exported spans and a metrics snapshot, and every cost-model charge
    is attributed to exactly one span — with tracing off the run is
    bit-identical, just unobserved.
    """
    if mode not in ("baseline", "monitor", "detect", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if fault_plan is not None:
        session_plan = replace(
            fault_plan, seed=fault_plan.seed + 7919 * ((monkey_seed or 0) + 1))
        device: Device = FaultyDevice(plan=session_plan, seed=monkey_seed or 0)
    else:
        device = Device(seed=monkey_seed or 0)
    tracer: Optional[Tracer] = None
    if trace:
        # Observe the meter before anything records: even the baseline
        # mode (no service) attributes its charges to the session root.
        tracer = Tracer(device.clock, trace_id=f"session-{monkey_seed or 0}")
        tracer.observe_perf(device.perf)
    app = SimulatedApp(device, session.spec)
    stub_screens = False
    if detector == "oracle":
        detector = OracleDetector(device, app)
        # The oracle never reads pixels; skip rasterization (identical
        # perf accounting, ~10x faster sweeps).
        stub_screens = True

    frauddroid_hits: List[Tuple[ScreenState, bool]] = []
    service: Optional[DarpaService] = None
    if mode != "baseline":
        active_detector = detector if mode in ("detect", "full") else _NullDetector()
        if fault_plan is not None and not fault_plan.is_null:
            active_detector = FaultyDetector(active_detector, device.faults)
        config = DarpaConfig(ct_ms=ct_ms, conf_threshold=conf_threshold,
                             decorate=(mode == "full"),
                             stub_screenshots=stub_screens or mode == "monitor",
                             **(darpa_kwargs or {}))
        service = DarpaService(device, active_detector, config=config,
                               policy=ScreenshotPolicy(consent_given=True),
                               tracer=tracer)
        service.start()
        if mode == "monitor":
            # Monitoring only: collect settled screenshots, never run
            # the model.  Replace the settled handler so no inference is
            # billed, and rebuild component residency accordingly.
            def monitor_only(event, _service=service):
                if event.package == _service.service.package:
                    return
                try:
                    with _service.policy.analyzed_screenshot(
                            _service.service, stub=True):
                        pass
                except ScreenshotFailedError:
                    _service.stats.screenshot_failures += 1
                    return
                _service.stats.screens_analyzed += 1

            service.debouncer.on_settled = monitor_only
            device.perf.reset()
            device.perf.enable_component("monitoring")
        elif mode == "detect":
            device.perf.reset()
            device.perf.enable_component("monitoring")
            device.perf.enable_component("detection")

    if frauddroid is not None and service is not None:
        original = service._on_settled

        def settled_with_frauddroid(event):
            state = app.current
            if state is not None:
                nodes = dump_view_hierarchy(device.window_manager,
                                            package=session.spec.package)
                flagged = frauddroid.screen_is_aui(nodes)
                frauddroid_hits.append((state, flagged))
            original(event)

        service.debouncer.on_settled = settled_with_frauddroid

    root_span = None
    if tracer is not None:
        root_span = tracer.start_span("session", package=session.spec.package,
                                      mode=mode, ct_ms=ct_ms)
    app.launch()
    if monkey_seed is not None:
        Monkey(device, seed=monkey_seed, taps_per_second=1.0).schedule_run(duration_ms)
    # Stop exactly at the session end: a screen that was still animating
    # when the minute ran out must not get a free post-session capture.
    device.clock.advance(duration_ms)
    app.finish()
    if tracer is not None:
        # Component residency rides on the root span so
        # report_from_spans can replay the meter's memory charges.
        tracer.end_span(root_span, components=sorted(tracer.components),
                        duration_ms=duration_ms)

    # Per-screen verdicts: a shown screen is flagged when any analysis
    # during its display found a UPO.
    verdicts: List[Tuple[bool, bool]] = []
    records = service.stats.records if service is not None else []
    for shown in app.shown_log:
        hits = [r for r in records
                if shown.start_ms <= r.timestamp_ms <= shown.end_ms + 1.0]
        flagged = any(r.flagged_aui for r in hits)
        labeled = shown.screen.is_aui and bool(shown.screen.boxes_of("UPO"))
        verdicts.append((labeled, flagged))

    # FraudDroid verdicts are aggregated per shown screen too (a screen
    # analyzed several times is flagged when any analysis flagged it),
    # so both detectors are scored on the same screenshot population.
    fd_verdicts: List[Tuple[bool, bool]] = []
    if frauddroid is not None:
        fd_by_screen: Dict[int, bool] = {}
        for state, flagged in frauddroid_hits:
            key = id(state)
            fd_by_screen[key] = fd_by_screen.get(key, False) or flagged
        for shown in app.shown_log:
            key = id(shown.screen)
            if key not in fd_by_screen:
                continue  # never settled -> never judged by either side
            labeled = shown.screen.is_aui and bool(shown.screen.boxes_of("UPO"))
            fd_verdicts.append((labeled, fd_by_screen[key]))

    resilience: Dict[str, int] = {}
    if service is not None:
        resilience = {name: getattr(service.stats, name)
                      for name in FAULT_COUNTERS}
    injected: Dict[str, int] = {}
    faults = getattr(device, "faults", None)
    if faults is not None:
        injected = dict(faults.counts)

    spans: Optional[List[Dict]] = None
    metrics: Dict = {}
    if tracer is not None:
        spans = tracer.export()
        metrics = (service.stats.metrics() if service is not None
                   else {"counters": {}, "gauges": {}})
        metrics["counters"][DROPPED_SPANS_COUNTER] = tracer.dropped

    return SessionResult(
        package=session.spec.package,
        perf=device.perf.report(duration_ms),
        events_total=len(device.event_log),
        screens_analyzed=(service.stats.screens_analyzed if service else 0),
        screen_verdicts=verdicts,
        frauddroid_verdicts=fd_verdicts,
        auis_shown=sum(1 for labeled, _ in verdicts if labeled),
        auis_flagged=sum(1 for labeled, f in verdicts if labeled and f),
        resilience=resilience,
        injected=injected,
        spans=spans,
        metrics=metrics,
    )


def run_darpa_over_fleet(
    sessions: Sequence[FleetSession],
    detector,
    ct_ms: float = 200.0,
    mode: str = "full",
    frauddroid=None,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    fault_plan: Optional[FaultPlan] = None,
    darpa_kwargs: Optional[Dict] = None,
    trace: bool = False,
) -> List[SessionResult]:
    return [
        run_darpa_session(s, detector, ct_ms=ct_ms, mode=mode,
                          monkey_seed=1000 + i, frauddroid=frauddroid,
                          conf_threshold=conf_threshold,
                          fault_plan=fault_plan, darpa_kwargs=darpa_kwargs,
                          trace=trace)
        for i, s in enumerate(sessions)
    ]
