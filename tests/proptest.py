"""Property-based harness for the DARPA serving path.

Hand-rolled (no new dependencies) and fully seeded: each case draws a
random view-tree pool, UI timeline, fault plan, and service config from
``numpy``'s ``default_rng``, replays the session through a traced
:class:`~repro.core.pipeline.DarpaService`, and checks structural
invariants of the observability layer that must hold for EVERY input:

- every span is closed, no charge was orphaned, none were dropped;
- children nest inside their parents in both identity and time;
- stage histograms agree with stage counters and with the per-span
  attributed CPU;
- the span-derived :class:`~repro.android.device.PerfReport` is
  bit-identical to the device meter's;
- a cache hit never charges an inference (or runs the fallback);
- an open breaker never runs the CNN — fallback inference only;
- the ``darpa.pipeline.*`` counters match what the spans recorded;
- telemetry sketch merges are associative, commutative and idempotent
  on empty sketches, fleet snapshots are invariant to shard order, and
  the SLO engine emits the same burn-rate alert sequence whether the
  per-session series was derived in one pass or shard by shard;
- darpalint (``repro.analysis``) flags every generated rule-violating
  snippet with exactly the seeded rule, and never flags generated
  clean snippets, across the same seed matrix.

Two case indices are pinned rather than random so the matrix is
non-vacuous under ANY seed base: case 0 is a chaos run (screenshot
failures, detector crashes, latency spikes past the deadline, a
hair-trigger breaker) and case 1 is a cache-friendly zero-fault run
(two screens reused across the whole timeline).

Run a different matrix with ``DARPA_PROPTEST_SEED_BASE=<n> pytest
tests/proptest.py`` — CI exercises a second base to widen coverage.
"""

import json
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Set

import numpy as np
import pytest

from repro.analysis import LintEngine, render_json
from repro.analysis.flow import FlowSpecs
from repro.analysis.flow import analyze_paths as flow_analyze
from repro.android import (
    AppSpec,
    SemanticRole,
    SimulatedApp,
    UiStep,
    UiTimeline,
    View,
)
from repro.android.apps import ScreenState
from repro.android.device import PerfOp
from repro.android.faults import FaultPlan, FaultyDetector, FaultyDevice
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy
from repro.core.observability import (
    Tracer,
    ops_from_spans,
    report_from_spans,
    session_root,
    stage_cpu_ms,
)
from repro.core.telemetry import (
    BurnPolicy,
    FleetTelemetry,
    QuantileSketch,
    SessionTelemetry,
    SloEngine,
    SloSpec,
)
from repro.geometry import Rect
from repro.imaging.color import PALETTE

from tests.core.test_pipeline import OracleDetector

SEED_BASE = int(os.environ.get("DARPA_PROPTEST_SEED_BASE", "0"))
N_CASES = 8
CASES = list(range(N_CASES))

WINDOW_W, WINDOW_H = 360, 568

#: Case 0: chaos.  Spikes (100 + 400 ms) blow the 150 ms deadline, the
#: two-strike breaker opens early, and captures fail 30% of the time.
CHAOS_PLAN = dict(
    screenshot_failure_rate=0.3,
    overlay_rejection_rate=0.25,
    detector_failure_rate=0.35,
    detector_spike_rate=0.35,
    detector_spike_ms=400.0,
    detector_base_ms=100.0,
)
CHAOS_CONFIG = dict(
    ct_ms=100.0,
    screen_cache_size=0,
    retry_max_attempts=2,
    breaker_failure_threshold=2,
    breaker_cooldown_ms=1500.0,
    deadline_ms=150.0,
    fallback_to_heuristic=True,
)

#: Case 1: cache-friendly.  No faults, two screens reused all session.
CACHE_CONFIG = dict(ct_ms=100.0, screen_cache_size=64,
                    fallback_to_heuristic=True)


# ---------------------------------------------------------------------------
# Random session generation
# ---------------------------------------------------------------------------

def _random_rect(rng: np.random.Generator) -> Rect:
    x = int(rng.integers(0, WINDOW_W - 40))
    y = int(rng.integers(0, WINDOW_H - 40))
    w = int(rng.integers(20, min(WINDOW_W - x, 220)))
    h = int(rng.integers(20, min(WINDOW_H - y, 160)))
    return Rect(x, y, w, h)


def _random_color(rng: np.random.Generator):
    names = sorted(PALETTE)
    return PALETTE[names[int(rng.integers(0, len(names)))]]


def _random_screen(rng: np.random.Generator, index: int,
                   force_aui: bool = False) -> ScreenState:
    root = View(bounds=Rect(0, 0, WINDOW_W, WINDOW_H),
                bg_color=_random_color(rng))
    for _ in range(int(rng.integers(1, 5))):
        root.add_child(View(bounds=_random_rect(rng),
                            bg_color=_random_color(rng),
                            clickable=bool(rng.random() < 0.3)))
    if force_aui or rng.random() < 0.45:
        ago = root.add_child(View(
            bounds=Rect(int(rng.integers(40, 140)),
                        int(rng.integers(180, 340)),
                        int(rng.integers(120, 220)),
                        int(rng.integers(40, 80))),
            clickable=True, role=SemanticRole.AGO, bg_color=PALETTE["red"]))
        labels = [("AGO", ago.bounds)]
        if rng.random() < 0.7:
            upo = root.add_child(View(bounds=Rect(320, 16, 24, 24),
                                      clickable=True, role=SemanticRole.UPO))
            labels.append(("UPO", upo.bounds))
        return ScreenState(root=root, is_aui=True, name=f"aui-{index}",
                           label_boxes=labels)
    return ScreenState(root=root, name=f"plain-{index}")


def _random_timeline(rng: np.random.Generator,
                     pool: List[ScreenState]) -> UiTimeline:
    steps, t = [], 0.0
    for _ in range(int(rng.integers(6, 13))):
        screen = pool[int(rng.integers(0, len(pool)))]
        steps.append(UiStep(t, screen,
                            minor_updates=int(rng.integers(0, 4)),
                            minor_spacing_ms=float(rng.integers(30, 90))))
        t += float(rng.integers(400, 1500))
    return UiTimeline(steps)


def _random_plan(rng: np.random.Generator, seed: int) -> FaultPlan:
    def rate(p_zero: float, hi: float) -> float:
        return 0.0 if rng.random() < p_zero else float(rng.uniform(0.05, hi))

    return FaultPlan(
        seed=seed * 31 + 7,
        screenshot_failure_rate=rate(0.5, 0.3),
        event_drop_rate=rate(0.7, 0.15),
        event_duplicate_rate=rate(0.7, 0.2),
        event_storm_rate=rate(0.8, 0.1),
        overlay_rejection_rate=rate(0.6, 0.3),
        detector_failure_rate=rate(0.5, 0.35),
        detector_spike_rate=rate(0.6, 0.4),
        detector_spike_ms=float(rng.integers(200, 600)),
        detector_base_ms=float(rng.integers(40, 160)),
    )


def _random_config(rng: np.random.Generator) -> Dict:
    return dict(
        ct_ms=float(rng.choice([50.0, 100.0, 200.0, 300.0])),
        screen_cache_size=int(rng.choice([0, 8, 64])),
        retry_max_attempts=int(rng.integers(1, 4)),
        breaker_failure_threshold=int(rng.integers(1, 4)),
        breaker_cooldown_ms=float(rng.choice([1000.0, 3000.0, 6000.0])),
        deadline_ms=float(rng.choice([0.0, 120.0, 450.0])),
        fallback_to_heuristic=bool(rng.random() < 0.8),
        auto_bypass=bool(rng.random() < 0.2),
    )


# ---------------------------------------------------------------------------
# Case runner (one replay per case, cached for all invariant tests)
# ---------------------------------------------------------------------------

@dataclass
class Case:
    seed: int
    config: DarpaConfig
    plan: FaultPlan
    device: FaultyDevice
    service: DarpaService
    tracer: Tracer
    spans: List[Dict]
    duration_ms: float


_CASE_CACHE: Dict[int, Case] = {}


def _run_case(index: int) -> Case:
    seed = SEED_BASE + index
    rng = np.random.default_rng(seed)
    pool = [_random_screen(rng, 0, force_aui=True)]
    pool += [_random_screen(rng, i) for i in range(1, int(rng.integers(2, 6)))]
    if index == 0:
        plan = FaultPlan(seed=seed * 31 + 7, **CHAOS_PLAN)
        config = DarpaConfig(**CHAOS_CONFIG)
    elif index == 1:
        pool = pool[:2]
        plan = FaultPlan(seed=seed * 31 + 7)
        config = DarpaConfig(**CACHE_CONFIG)
    else:
        plan = _random_plan(rng, seed)
        config = DarpaConfig(**_random_config(rng))
    timeline = _random_timeline(rng, pool)

    device = FaultyDevice(plan=plan, seed=seed)
    tracer = Tracer(device.clock, trace_id=f"proptest-{seed}")
    tracer.observe_perf(device.perf)
    app = SimulatedApp(device, AppSpec(package=f"com.prop.case{index}",
                                       timeline=timeline))
    detector = OracleDetector(device, app)
    if not plan.is_null:
        detector = FaultyDetector(detector, device.faults)
    service = DarpaService(device, detector, config=config,
                           policy=ScreenshotPolicy(consent_given=True),
                           tracer=tracer)
    service.start()
    root = tracer.start_span("session", package=app.spec.package, case=index)
    app.launch()
    duration_ms = timeline.duration_ms + 3000.0
    device.clock.advance(duration_ms)
    app.finish()
    tracer.end_span(root, components=sorted(tracer.components),
                    duration_ms=duration_ms)
    return Case(seed=seed, config=config, plan=plan, device=device,
                service=service, tracer=tracer, spans=tracer.export(),
                duration_ms=duration_ms)


@pytest.fixture(params=CASES, ids=lambda i: f"case{i}-seed{SEED_BASE + i}")
def case(request) -> Case:
    index = request.param
    if index not in _CASE_CACHE:
        _CASE_CACHE[index] = _run_case(index)
    return _CASE_CACHE[index]


def _subtree(spans: List[Dict], root_id: int) -> List[Dict]:
    """All spans in the subtree rooted at ``root_id`` (root excluded)."""
    children: Dict[int, List[Dict]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    out, stack = [], [root_id]
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child["span_id"])
    return out


def _analyze_spans(spans: List[Dict]) -> List[Dict]:
    return [s for s in spans if s["name"] == "analyze"]


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

class TestSpanStructure:
    def test_every_span_closed_nothing_orphaned(self, case):
        assert case.tracer.open_spans == []
        assert case.tracer.orphan_ops == {}
        assert case.tracer.dropped == 0
        for span in case.spans:
            assert span["end_ms"] is not None, f"{span['name']} never closed"
            assert span["end_ms"] >= span["start_ms"]

    def test_parents_contain_children(self, case):
        by_id = {s["span_id"]: s for s in case.spans}
        for span in case.spans:
            parent_id = span["parent_id"]
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            assert parent["start_ms"] <= span["start_ms"]
            assert span["end_ms"] <= parent["end_ms"]

    def test_single_session_root(self, case):
        root = session_root(case.spans)
        assert root["attributes"]["case"] in CASES
        assert root["end_ms"] - root["start_ms"] == case.duration_ms

    def test_span_names_are_known_stages(self, case):
        known = {"session", "event", "debounce", "analyze", "screenshot",
                 "cache_probe", "inference", "fallback", "decorate",
                 "breaker_transition"}
        assert {s["name"] for s in case.spans} <= known


class TestMetricCoherence:
    def test_histogram_counts_match_stage_counters(self, case):
        snap = case.tracer.registry.snapshot()
        for name, hist in snap["histograms"].items():
            if not name.startswith("darpa.stage."):
                continue
            stage = name[len("darpa.stage."):-len(".cpu_ms")]
            assert hist["count"] == \
                snap["counters"][f"darpa.stage.{stage}.count"]

    def test_histogram_sums_match_span_cpu(self, case):
        snap = case.tracer.registry.snapshot()
        per_stage = stage_cpu_ms(case.spans,
                                 profile=case.device.perf.profile)
        for stage, cpu in per_stage.items():
            assert snap["histograms"][f"darpa.stage.{stage}.cpu_ms"]["sum"] \
                == cpu

    def test_pipeline_counters_match_spans(self, case):
        spans, stats = case.spans, case.service.stats
        analyze = _analyze_spans(spans)
        outcome = lambda s: s["attributes"].get("outcome")  # noqa: E731
        assert stats.screens_analyzed == \
            sum(1 for s in analyze if outcome(s) == "ok")
        assert stats.screenshot_failures == \
            sum(1 for s in analyze if outcome(s) == "screenshot_failed")
        assert stats.deadline_skips == \
            sum(1 for s in analyze if outcome(s) == "deadline_abandoned")
        assert stats.cache_hits == sum(
            1 for s in spans if s["name"] == "cache_probe"
            and s["attributes"]["hit"])
        assert stats.fallback_detections == \
            sum(1 for s in spans if s["name"] == "fallback")
        assert stats.detector_failures == sum(
            1 for s in spans if s["name"] == "inference"
            and s["attributes"].get("crashed"))

    def test_inference_charges_match_surviving_inferences(self, case):
        ops = ops_from_spans(case.spans)
        survived = sum(1 for s in case.spans if s["name"] == "inference"
                       and not s["attributes"].get("crashed"))
        assert ops.get(PerfOp.INFERENCE.value, 0) == survived
        assert ops.get(PerfOp.FALLBACK_INFERENCE.value, 0) == \
            case.service.stats.fallback_detections


class TestPerfFidelity:
    def test_span_report_bit_identical_to_meter(self, case):
        rebuilt = report_from_spans(case.spans,
                                    duration_ms=case.duration_ms)
        assert rebuilt == case.device.perf.report(case.duration_ms)

    def test_op_totals_match_meter_counts(self, case):
        assert ops_from_spans(case.spans) == {
            op: n for op, n in case.device.perf.counts().items() if n}


class TestPipelineExclusions:
    def test_cache_hit_charges_no_inference(self, case):
        for span in _analyze_spans(case.spans):
            if not span["attributes"].get("cache_hit"):
                continue
            subtree = _subtree(case.spans, span["span_id"])
            names = {s["name"] for s in subtree}
            assert "inference" not in names and "fallback" not in names
            charged: Set[str] = set(span["ops"])
            for child in subtree:
                charged |= set(child["ops"])
            assert PerfOp.INFERENCE.value not in charged
            assert PerfOp.FALLBACK_INFERENCE.value not in charged

    def test_breaker_open_means_fallback_only(self, case):
        for span in _analyze_spans(case.spans):
            if not span["attributes"].get("breaker_open"):
                continue
            subtree = _subtree(case.spans, span["span_id"])
            assert all(s["name"] != "inference" for s in subtree)
            charged: Set[str] = set(span["ops"])
            for child in subtree:
                charged |= set(child["ops"])
            assert PerfOp.INFERENCE.value not in charged
            if case.config.fallback_to_heuristic and \
                    span["attributes"].get("outcome") == "ok":
                assert any(s["name"] == "fallback" for s in subtree)


# ---------------------------------------------------------------------------
# Telemetry algebra: sketch merges and SLO alerting must be invariant
# to how the fleet was partitioned into shards.
# ---------------------------------------------------------------------------

def _sketch_snapshot(sketch: QuantileSketch) -> str:
    return json.dumps(sketch.snapshot(), sort_keys=True)


def _random_latencies(rng: np.random.Generator) -> List[float]:
    values = rng.lognormal(mean=3.0, sigma=1.2,
                           size=int(rng.integers(20, 200))).tolist()
    # Sprinkle exact zeros: the zero bucket must merge like any other.
    return [0.0 if rng.random() < 0.1 else float(v) for v in values]


def _observe_all(values: List[float], session: int = 0,
                 start_id: int = 0) -> QuantileSketch:
    """Exemplar ids are global (offset by ``start_id``), like span ids
    that travel with the session regardless of sharding."""
    sketch = QuantileSketch()
    for i, v in enumerate(values):
        sketch.observe(v, exemplar={"session": session,
                                    "span_id": start_id + i,
                                    "trace_id": f"t{session}"})
    return sketch


class TestSketchMergeAlgebra:
    @pytest.mark.parametrize("seed", range(6))
    def test_merge_is_associative_and_commutative(self, seed):
        rng = np.random.default_rng(SEED_BASE * 1000 + seed)
        parts = [_observe_all(_random_latencies(rng), session=i)
                 for i in range(4)]

        def fold(order, pairing):
            copies = [QuantileSketch().merge(parts[i]) for i in order]
            if pairing == "left":
                acc = copies[0]
                for sketch in copies[1:]:
                    acc.merge(sketch)
                return acc
            # Balanced tree: (0+1) + (2+3).
            return copies[0].merge(copies[1]).merge(
                copies[2].merge(copies[3]))

        want = _sketch_snapshot(fold([0, 1, 2, 3], "left"))
        assert _sketch_snapshot(fold([3, 1, 0, 2], "left")) == want
        assert _sketch_snapshot(fold([2, 3, 0, 1], "tree")) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_merge_empty_is_identity(self, seed):
        rng = np.random.default_rng(SEED_BASE * 2000 + seed)
        sketch = _observe_all(_random_latencies(rng))
        want = _sketch_snapshot(sketch)
        assert _sketch_snapshot(sketch.merge(QuantileSketch())) == want
        assert _sketch_snapshot(QuantileSketch().merge(sketch)) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_sharding_never_changes_the_sketch(self, seed):
        rng = np.random.default_rng(SEED_BASE * 3000 + seed)
        values = _random_latencies(rng)
        whole = _sketch_snapshot(_observe_all(values))
        for n_shards in (1, 2, 3, 7):
            bounds = [round(i * len(values) / n_shards)
                      for i in range(n_shards + 1)]
            shards = [_observe_all(values[lo:hi], start_id=lo)
                      for lo, hi in zip(bounds[:-1], bounds[1:])]
            acc = QuantileSketch()
            for shard in reversed(shards):
                acc.merge(shard)
            assert _sketch_snapshot(acc) == whole


def _fleet_results() -> List[SimpleNamespace]:
    cases = [_CASE_CACHE.setdefault(i, _run_case(i)) for i in CASES]
    return [SimpleNamespace(spans=c.spans,
                            metrics=c.tracer.registry.snapshot())
            for c in cases]


#: Hair-trigger objective so the chaos cases actually fire alerts: any
#: screenshot failure blows the 10% budget over one-session windows.
TRIGGER_SLO = SloSpec(
    name="capture", objective=0.9, kind="ratio",
    bad_counter="screenshot_failures",
    total_counters=("screens_analyzed", "screenshot_failures"),
    policies=(BurnPolicy(severity="page", fast_window=1, slow_window=2,
                         burn_threshold=1.0),))


class TestSloShardInvariance:
    def test_fleet_snapshot_invariant_to_shard_order(self):
        results = _fleet_results()
        whole = FleetTelemetry.from_results(results)
        for split in ((4,), (2, 5), (1, 3, 6)):
            bounds = [0, *split, len(results)]
            shards = [
                FleetTelemetry.from_results(results[lo:hi], start_index=lo)
                for lo, hi in zip(bounds[:-1], bounds[1:])]
            for order in (shards, list(reversed(shards))):
                acc = FleetTelemetry()
                for shard in order:
                    acc.merge(shard)
                assert (json.dumps(acc.snapshot(), sort_keys=True)
                        == json.dumps(whole.snapshot(), sort_keys=True))

    def test_alert_sequence_identical_sequential_vs_sharded(self):
        results = _fleet_results()
        whole_series = [SessionTelemetry.from_result(i, r)
                        for i, r in enumerate(results)]
        engine = SloEngine([TRIGGER_SLO])
        want = engine.evaluate(whole_series).to_dict()
        assert want["alerts"], "trigger SLO never fired — vacuous check"
        for bounds in ([0, 3, 8], [0, 1, 4, 8], [0, 8]):
            sharded_series = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                sharded_series.extend(
                    SessionTelemetry.from_result(lo + i, r)
                    for i, r in enumerate(results[lo:hi]))
            got = engine.evaluate(sharded_series).to_dict()
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(want, sort_keys=True))


# ---------------------------------------------------------------------------
# Serving-daemon invariants: for ANY seeded scheduling policy the daemon
# must keep lane FIFO order, respect queue bounds, land every offered
# session on exactly one terminal outcome, and resume a killed run to
# the same bytes as an uninterrupted one.
# ---------------------------------------------------------------------------

N_DAEMON_CASES = 5


def _random_daemon_config(rng: np.random.Generator) -> "DaemonConfig":
    from repro.core.daemon import DaemonConfig, LaneConfig

    lanes = (LaneConfig("interactive", capacity=int(rng.integers(1, 4))),
             LaneConfig("background", capacity=int(rng.integers(1, 4))))
    return DaemonConfig(
        inter_arrival_ms=float(rng.choice([5.0, 40.0, 120.0])),
        admission_rate_per_s=float(rng.choice([5.0, 40.0, 200.0])),
        admission_burst=int(rng.integers(1, 6)),
        lanes=lanes,
        background_every=int(rng.choice([0, 2, 3])),
        workers=int(rng.integers(1, 4)),
        batch_max=int(rng.integers(1, 5)),
        batch_service_ms=float(rng.choice([100.0, 300.0, 600.0])),
        shed_deadline_ms=float(rng.choice([0.0, 50.0, 400.0])),
    )


_DAEMON_FLEET = None
_DAEMON_REPORTS: Dict[int, object] = {}


def _daemon_case(index: int):
    """One daemon run per case index, cached across the invariants."""
    from repro.bench.experiments import build_runtime_fleet
    from repro.core.daemon import DarpaDaemon

    global _DAEMON_FLEET
    if _DAEMON_FLEET is None:
        _DAEMON_FLEET = build_runtime_fleet(n_apps=4, seed=0)
    if index not in _DAEMON_REPORTS:
        rng = np.random.default_rng(SEED_BASE * 6000 + index)
        config = _random_daemon_config(rng)
        plan = None
        if rng.random() < 0.5:
            plan = FaultPlan(seed=SEED_BASE * 31 + index,
                             worker_crash_rate=float(rng.choice([0.0, 0.3])),
                             worker_stall_rate=float(rng.choice([0.0, 0.4])),
                             worker_restart_ms=200.0,
                             worker_stall_ms=500.0)
            if plan.is_null:
                plan = None
        report = DarpaDaemon(
            _DAEMON_FLEET, "oracle", config=config, fault_plan=plan,
            trace=False, keep_results=False).run()
        _DAEMON_REPORTS[index] = (config, report)
    return _DAEMON_REPORTS[index]


@pytest.fixture(params=range(N_DAEMON_CASES),
                ids=lambda i: f"daemon{i}-seed{SEED_BASE * 6000 + i}")
def daemon_case(request):
    return _daemon_case(request.param)


class TestDaemonProperty:
    def test_outcome_trichotomy(self, daemon_case):
        from repro.core.daemon import OUTCOMES

        _, report = daemon_case
        c = report.counters
        # Every offered session reached exactly one terminal outcome —
        # nothing hangs, nothing is counted twice.
        assert c["decorated"] + c["degraded"] + c["shed"] == c["offered"]
        assert len(report.outcomes) == c["offered"]
        assert set(report.outcomes.values()) <= set(OUTCOMES)
        assert c["shed"] == len(report.rejections)

    def test_fifo_within_every_lane(self, daemon_case):
        _, report = daemon_case
        served: Dict[str, List[int]] = {}
        for batch in report.batches:
            if batch.fault == "crash":
                continue  # never ran; its sessions re-enqueued at head
            served.setdefault(batch.lane, []).extend(batch.indices)
        for lane, indices in served.items():
            assert indices == sorted(indices), f"lane {lane} broke FIFO"

    def test_batches_respect_the_size_bound(self, daemon_case):
        config, report = daemon_case
        for batch in report.batches:
            assert 1 <= len(batch.indices) <= config.batch_max

    def test_lane_occupancy_never_exceeds_capacity(self, daemon_case):
        config, report = daemon_case
        capacity = {lane.name: lane.capacity for lane in config.lanes}
        admitted = [e for e in report.schedules
                    if e.outcome in ("decorated", "degraded")]
        for entry in admitted:
            t = entry.arrival_ms
            # Queued in the same lane at this arrival instant: arrived
            # at or before t and not yet taken by a batch formed <= t.
            queued = sum(
                1 for other in admitted
                if other.lane == entry.lane and other.arrival_ms <= t
                and (other.start_ms is None or other.start_ms > t))
            assert queued <= capacity[entry.lane], (
                f"lane {entry.lane} exceeded capacity at t={t}")

    def test_crashed_batches_left_no_outcome(self, daemon_case):
        _, report = daemon_case
        crashed = [b for b in report.batches if b.fault == "crash"]
        completed = {i for b in report.batches if b.fault != "crash"
                     for i in b.indices}
        for batch in crashed:
            # Every session of a crashed batch was eventually served by
            # a later (non-crashed) batch — exactly-once execution.
            assert set(batch.indices) <= completed

    def test_kill_resume_equals_uninterrupted(self, tmp_path):
        import filecmp

        from repro.core.daemon import DaemonConfig, DarpaDaemon

        from repro.bench.experiments import build_runtime_fleet

        fleet = _DAEMON_FLEET or build_runtime_fleet(n_apps=4, seed=0)
        rng = np.random.default_rng(SEED_BASE * 7000)
        config = DaemonConfig(
            inter_arrival_ms=float(rng.choice([60.0, 120.0])),
            admission_rate_per_s=200.0, admission_burst=16,
            workers=int(rng.integers(1, 3)),
            batch_max=int(rng.integers(1, 4)),
            batch_service_ms=250.0, shed_deadline_ms=0.0)
        full, kr = tmp_path / "full", tmp_path / "kr"
        DarpaDaemon(fleet, "oracle", config=config,
                    out_dir=str(full), keep_results=False).run()
        killed = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(kr), keep_results=False
                             ).run(max_batches=1)
        assert killed.killed
        resumed = DarpaDaemon(fleet, "oracle", config=config,
                              out_dir=str(kr), keep_results=False
                              ).run(resume=True)
        assert resumed.completed
        for name in ("trace.jsonl", "metrics.jsonl", "telemetry.json",
                     "telemetry.prom", "daemon.json", "drain.json"):
            assert filecmp.cmp(str(full / name), str(kr / name),
                               shallow=False), f"{name} diverged"


# ---------------------------------------------------------------------------
# darpalint: generated violating snippets are always flagged with the
# seeded rule (and only it); generated clean snippets never are.
# ---------------------------------------------------------------------------

_SNIPPET_NAMES = ("alpha", "bravo", "delta", "kappa", "sigma", "omega")


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(0, len(options)))]


def _lint_rules(source: str) -> List[str]:
    engine = LintEngine()
    return sorted({f.rule for f in engine.lint_source(source, path="gen.py")})


def _dirty_dl001(rng):
    call = _pick(rng, ("time.time()", "time.perf_counter()",
                       "time.monotonic()", "time.time_ns()"))
    return (f"import time\n\ndef {_pick(rng, _SNIPPET_NAMES)}():\n"
            f"    return {call}\n")


def _dirty_dl002(rng):
    call = _pick(rng, ("random.random()", "random.Random()",
                       f"random.randint(0, {int(rng.integers(2, 99))})",
                       "random.shuffle(items)"))
    return (f"import random\n\ndef {_pick(rng, _SNIPPET_NAMES)}(items):\n"
            f"    return {call}\n")


def _dirty_dl003(rng):
    scope = _pick(rng, ("merge_", "export_")) + _pick(rng, _SNIPPET_NAMES)
    iterable = _pick(rng, ("table.keys()", "set(rows)",
                           "set(left) | right"))
    return (f"def {scope}(table, rows, left, right):\n"
            f"    out = []\n"
            f"    for item in {iterable}:\n"
            f"        out.append(item)\n"
            f"    return out\n")


def _dirty_dl004(rng):
    scope = _pick(rng, ("merge_", "snapshot_")) + _pick(rng, _SNIPPET_NAMES)
    step = _pick(rng, ("float(part)", f"part * {float(rng.integers(1, 9))}",
                       "part / 2"))
    return (f"def {scope}(parts):\n"
            f"    total = 0.0\n"
            f"    for part in parts:\n"
            f"        total += {step}\n"
            f"    return total\n")


def _dirty_dl005(rng):
    handler = _pick(rng, ("except OSError:", "except Exception:", "except:"))
    return (f"def {_pick(rng, _SNIPPET_NAMES)}(path):\n"
            f"    try:\n"
            f"        handle = open(path)\n"
            f"    {handler}\n"
            f"        pass\n")


def _dirty_dl006(rng):
    default = _pick(rng, ("[]", "{}", "set()", "dict()", "list()"))
    return (f"def {_pick(rng, _SNIPPET_NAMES)}(item, acc={default}):\n"
            f"    return acc\n")


_DIRTY_GENERATORS = {
    "DL001": _dirty_dl001,
    "DL002": _dirty_dl002,
    "DL003": _dirty_dl003,
    "DL004": _dirty_dl004,
    "DL005": _dirty_dl005,
    "DL006": _dirty_dl006,
}


def _clean_snippets(rng: np.random.Generator) -> List[str]:
    name = _pick(rng, _SNIPPET_NAMES)
    seed = int(rng.integers(1, 999))
    return [
        # Simulated clock, not wall clock.
        f"def {name}(clock):\n    return clock.now_ms()\n",
        # Explicitly seeded RNGs.
        (f"import random\n\ndef {name}():\n"
         f"    return random.Random({seed}).random()\n"),
        (f"import numpy as np\n\ndef {name}():\n"
         f"    return np.random.default_rng({seed})\n"),
        # Sorted iteration inside a merge scope.
        (f"def merge_{name}(table):\n"
         f"    return [key for key in sorted(table.keys())]\n"),
        # Integer accumulation in a merge scope; fsum for floats.
        (f"import math\n\ndef merge_{name}(parts):\n"
         f"    count = 0\n"
         f"    for part in parts:\n"
         f"        count += 1\n"
         f"    return count, math.fsum(parts)\n"),
        # Exception recorded, not swallowed.
        (f"def {name}(path, errors):\n"
         f"    try:\n"
         f"        return open(path)\n"
         f"    except OSError as exc:\n"
         f"        errors.append(str(exc))\n"
         f"        return None\n"),
        # None-default idiom.
        (f"def {name}(item, acc=None):\n"
         f"    if acc is None:\n"
         f"        acc = []\n"
         f"    acc.append(item)\n"
         f"    return acc\n"),
    ]


class TestDarpalintProperty:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rule", sorted(_DIRTY_GENERATORS))
    def test_violating_snippets_always_flagged(self, rule, seed):
        rng = np.random.default_rng(
            SEED_BASE * 4000 + seed * 10 + int(rule[2:]))
        source = _DIRTY_GENERATORS[rule](rng)
        assert _lint_rules(source) == [rule], source

    @pytest.mark.parametrize("seed", range(4))
    def test_clean_snippets_never_flagged(self, seed):
        rng = np.random.default_rng(SEED_BASE * 5000 + seed)
        for source in _clean_snippets(rng):
            assert _lint_rules(source) == [], source


# ---------------------------------------------------------------------------
# darpaflow: a seeded interprocedural source->sink chain through N>=2
# random helpers is always reported with the exact hop chain; inserting
# a sanitizer on ANY hop kills the report; report bytes are invariant
# to input path order.
# ---------------------------------------------------------------------------

_FLOW_KINDS = ("wall-clock", "listing")


def _flow_chain(rng, kind, sanitize_hop=None):
    """Generated module: one source->sink flow through n>=2 helpers.

    Returns ``(source_text, helper_names)``.  ``sanitize_hop`` inserts
    the kind-appropriate sanitizer inside that helper — ``sorted()``
    for the listing chain (order taints are genuinely erased by
    sorting), the ``# darpaflow: sanitized=`` marker for wall clock
    (a value taint no reordering can clean).
    """
    n_hops = int(rng.integers(2, 5))
    order = [str(name) for name in rng.permutation(list(_SNIPPET_NAMES))]
    helpers = [f"hop_{name}" for name in order[:n_hops]]
    source_call = ("time.time()" if kind == "wall-clock"
                   else "os.listdir(root)")
    lines = ["import os", "import time", "",
             "from repro.ops.routes import canonical_bytes", "", "",
             "def read_source(root):",
             f"    value = {source_call}",
             "    return value", "", ""]
    for index, helper in enumerate(helpers):
        if index == sanitize_hop and kind == "listing":
            body = "    held = sorted(value)"
        elif index == sanitize_hop:
            body = "    held = value  # darpaflow: sanitized=proptest"
        else:
            body = "    held = value"
        lines += [f"def {helper}(value):", body, "    return held", "", ""]
    lines += ["def emit(root):", "    value = read_source(root)"]
    lines += [f"    value = {helper}(value)" for helper in helpers]
    lines.append('    return canonical_bytes({"value": value})')
    return "\n".join(lines) + "\n", helpers


class TestDarpaflowProperty:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", _FLOW_KINDS)
    def test_chain_always_reported_with_exact_hops(self, kind, seed,
                                                   tmp_path):
        rng = np.random.default_rng(
            SEED_BASE * 10000 + seed * 10 + len(kind))
        source, helpers = _flow_chain(rng, kind)
        (tmp_path / "gen.py").write_text(source)
        findings = flow_analyze([str(tmp_path)], FlowSpecs())
        assert len(findings) == 1, source
        finding = findings[0]
        expected_rule = "DF001" if kind == "wall-clock" else "DF003"
        assert finding.rule == expected_rule
        assert finding.sink == "repro.ops.routes.canonical_bytes"
        notes = [hop.note for hop in finding.trace]
        assert notes[0].endswith("[source]")
        assert notes[-1].endswith("[sink]")
        # Every helper appears as a parameter hop, in chain order.
        positions = [notes.index(f"parameter 'value' of gen.{helper}()")
                     for helper in helpers]
        assert positions == sorted(positions), source

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", _FLOW_KINDS)
    def test_sanitizer_on_any_hop_kills_the_flow(self, kind, seed,
                                                 tmp_path):
        seed_value = SEED_BASE * 11000 + seed * 10 + len(kind)
        dirty, helpers = _flow_chain(np.random.default_rng(seed_value),
                                     kind)
        base = tmp_path / "dirty"
        base.mkdir()
        (base / "gen.py").write_text(dirty)
        assert len(flow_analyze([str(base)], FlowSpecs())) == 1, dirty
        for hop in range(len(helpers)):
            # Fresh rng, same seed: the identical chain, one hop
            # sanitized.  Whichever hop it is, the report dies.
            clean, _ = _flow_chain(np.random.default_rng(seed_value),
                                   kind, sanitize_hop=hop)
            sub = tmp_path / f"hop{hop}"
            sub.mkdir()
            (sub / "gen.py").write_text(clean)
            assert flow_analyze([str(sub)], FlowSpecs()) == [], clean

    @pytest.mark.parametrize("seed", range(2))
    def test_report_bytes_invariant_to_path_order(self, seed, tmp_path):
        rng = np.random.default_rng(SEED_BASE * 12000 + seed)
        dirs = []
        for index in range(3):
            source, _ = _flow_chain(rng, _FLOW_KINDS[index % 2])
            sub = tmp_path / f"m{index}"
            sub.mkdir()
            # Distinct module names: colliding qualnames would shadow
            # one another in the function registry.
            (sub / f"gen{index}.py").write_text(source)
            dirs.append(str(sub))
        baseline = None
        for _ in range(4):
            order = [dirs[int(i)] for i in rng.permutation(len(dirs))]
            payload = render_json(flow_analyze(order, FlowSpecs()))
            if baseline is None:
                baseline = payload
            assert payload == baseline


# ---------------------------------------------------------------------------
# Ops dashboard: the route layer is invariant to how the run directory
# was sharded and listed, and every exemplar link lands on a real span.
# ---------------------------------------------------------------------------

N_OPS_CASES = 3

_OPS_RESULTS = None


def _ops_results():
    """One traced 4-session fleet run, cached across the ops cases."""
    from repro.bench.experiments import (
        build_runtime_fleet,
        run_darpa_over_fleet,
    )

    global _OPS_RESULTS
    if _OPS_RESULTS is None:
        fleet = build_runtime_fleet(n_apps=4, seed=SEED_BASE,
                                    duration_ms=5_000.0)
        _OPS_RESULTS = list(enumerate(run_darpa_over_fleet(
            fleet, "oracle", ct_ms=200.0, mode="full", trace=True)))
    return _OPS_RESULTS


def _random_partition(rng: np.random.Generator, n: int):
    """Random contiguous index partition of ``range(n)`` into shards."""
    n_cuts = int(rng.integers(0, n))
    cuts = sorted({int(c) for c in rng.integers(1, n, size=n_cuts)})
    bounds = [0] + cuts + [n]
    return list(zip(bounds, bounds[1:]))


def _ops_case(index: int, tmp_path):
    """Write one random sharding as both part files and merged files."""
    from repro.bench.parallel import (
        _write_shard_artifacts,
        merge_trace_artifacts,
    )

    results = _ops_results()
    rng = np.random.default_rng(SEED_BASE * 8000 + index)
    parts_dir, merged_dir = tmp_path / "parts", tmp_path / "merged"
    parts_dir.mkdir(), merged_dir.mkdir()
    for lo, hi in _random_partition(rng, len(results)):
        _write_shard_artifacts(str(parts_dir), results[lo:hi])
        _write_shard_artifacts(str(merged_dir), results[lo:hi])
    merge_trace_artifacts(str(merged_dir))
    return rng, str(parts_dir), str(merged_dir)


class TestOpsProperty:
    @pytest.mark.parametrize("index", range(N_OPS_CASES))
    def test_routes_from_parts_equal_routes_from_merged(self, index,
                                                        tmp_path):
        from repro.ops.artifacts import load_run
        from repro.ops.routes import dump_routes

        rng, parts_dir, merged_dir = _ops_case(index, tmp_path)
        from_parts = dump_routes(load_run(parts_dir, ct_ms=200.0))
        from_merged = dump_routes(load_run(merged_dir, ct_ms=200.0))
        # Overview KPIs — and every other route — must not care whether
        # the telemetry arrived as shard parts or as the merged
        # telemetry.json/trace.jsonl the parts fold into.
        assert from_parts == from_merged

    @pytest.mark.parametrize("index", range(N_OPS_CASES))
    def test_listing_order_never_changes_the_bytes(self, index, tmp_path):
        from repro.ops.artifacts import load_run
        from repro.ops.routes import dump_routes

        rng, parts_dir, _ = _ops_case(index, tmp_path)
        names = sorted(os.listdir(parts_dir))
        baseline = dump_routes(load_run(parts_dir, ct_ms=200.0))
        for _ in range(3):
            shuffled = [names[i] for i in rng.permutation(len(names))]
            assert dump_routes(load_run(parts_dir, ct_ms=200.0,
                                        names=shuffled)) == baseline

    @pytest.mark.parametrize("index", range(N_OPS_CASES))
    def test_every_exemplar_resolves_to_a_recorded_span(self, index,
                                                        tmp_path):
        from repro.ops.artifacts import load_run
        from repro.ops.routes import METRIC_SKETCHES, resolve

        _, parts_dir, _ = _ops_case(index, tmp_path)
        model = load_run(parts_dir, ct_ms=200.0)
        recorded = {
            session: {(s["span_id"], s["trace_id"])
                      for s in result.spans or ()}
            for session, result in _ops_results()
        }
        seen = 0
        for metric in sorted(METRIC_SKETCHES):
            payload = resolve(model, f"/api/quantiles/{metric}")
            for bucket in payload["buckets"]:
                exemplar = bucket["exemplar"]
                if exemplar is None:
                    continue
                seen += 1
                assert exemplar["resolves"] is True
                assert exemplar["href"] == (
                    f"/api/traces/{exemplar['session']}")
                # The link lands on a span the run actually recorded,
                # in the trace it claims to belong to.
                assert (exemplar["span_id"], exemplar["trace_id"]) in (
                    recorded[exemplar["session"]])
        assert seen > 0, "no exemplars survived the merge — vacuous case"


# ---------------------------------------------------------------------------
# Profiling: the stack-profile merge algebra under random shardings.
# Invariants: any merge tree over per-session profiles serializes to
# the same bytes; a sharded run's profile.json parts fold to exactly
# the merged artifact; diff(A, A) is empty for every folded profile.
# ---------------------------------------------------------------------------

N_PROFILING_CASES = 3


class TestProfilingProperty:
    @pytest.mark.parametrize("index", range(N_PROFILING_CASES))
    def test_any_merge_tree_gives_identical_bytes(self, index):
        from repro.profiling import Profile, profile_from_result

        results = _ops_results()
        rng = np.random.default_rng(SEED_BASE * 9000 + index)
        parts = [profile_from_result(result).to_dict()
                 for _, result in results]
        baseline = None
        for _ in range(4):
            # A random binary merge tree: repeatedly fold a random
            # profile into a random other until one remains.
            pool = [Profile.from_dict(p) for p in parts]
            while len(pool) > 1:
                j = int(rng.integers(1, len(pool)))
                k = int(rng.integers(0, j))
                pool[k].merge(pool.pop(j))
            got = pool[0].to_json()
            baseline = baseline or got
            assert got == baseline, "merge tree changed the bytes"

    @pytest.mark.parametrize("index", range(N_PROFILING_CASES))
    def test_sharded_profile_equals_merged_artifact(self, index, tmp_path):
        from repro.profiling import load_profile

        from repro.ops.artifacts import load_run

        _, parts_dir, merged_dir = _ops_case(index, tmp_path)
        from_parts = load_profile(parts_dir)
        from_merged = load_profile(merged_dir)
        assert from_parts.to_json() == from_merged.to_json()
        assert from_parts.sessions == len(_ops_results())
        # The dashboard and `repro profile` read the same run the same way.
        for source in (parts_dir, merged_dir):
            assert (load_run(source).profile.to_json()
                    == load_profile(source).to_json())

    @pytest.mark.parametrize("index", range(N_PROFILING_CASES))
    def test_trace_refold_matches_shipped_profile(self, index, tmp_path):
        from repro.profiling import load_profile

        _, _, merged_dir = _ops_case(index, tmp_path)
        # A span JSONL source is folded from its spans alone.
        refolded = load_profile(os.path.join(merged_dir, "trace.jsonl"))
        # Dropped counts ride the metrics lines, not the trace; with no
        # drops in these runs the refold is bit-equal to the artifact.
        assert refolded.to_json() == load_profile(merged_dir).to_json()

    @pytest.mark.parametrize("index", range(N_PROFILING_CASES))
    def test_self_diff_is_empty(self, index, tmp_path):
        from repro.profiling import diff_profiles, load_profile

        _, parts_dir, merged_dir = _ops_case(index, tmp_path)
        for source in (parts_dir, merged_dir):
            profile = load_profile(source)
            assert profile.frames, "vacuous case — no frames folded"
            assert diff_profiles(profile, profile).empty


# ---------------------------------------------------------------------------
# Non-vacuousness: the matrix must actually exercise the paths the
# invariants constrain, whatever seed base is in effect.
# ---------------------------------------------------------------------------

def test_matrix_exercises_the_interesting_paths():
    cases = [_CASE_CACHE.setdefault(i, _run_case(i)) for i in CASES]
    totals = {
        "cache_hits": sum(c.service.stats.cache_hits for c in cases),
        "screenshot_failures": sum(c.service.stats.screenshot_failures
                                   for c in cases),
        "detector_failures": sum(c.service.stats.detector_failures
                                 for c in cases),
        "deadline_skips": sum(c.service.stats.deadline_skips for c in cases),
        "fallbacks": sum(c.service.stats.fallback_detections for c in cases),
        "breaker_opens": sum(c.service.stats.breaker_opens for c in cases),
        "decorations": sum(c.service.stats.decorations_drawn for c in cases),
        "analyzed": sum(c.service.stats.screens_analyzed for c in cases),
    }
    vacuous = [name for name, total in totals.items() if total == 0]
    assert not vacuous, f"matrix never exercised: {vacuous} ({totals})"
