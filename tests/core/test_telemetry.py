"""Unit tests for repro.core.telemetry: quantile sketches, session /
fleet telemetry derivation, exporters, and the SLO burn-rate engine."""

import json
import math
from types import SimpleNamespace

import pytest

from repro.android.device import PROFILE
from repro.core.telemetry import (
    DEBOUNCE_SKETCH,
    DEFAULT_ALPHA,
    INFERENCE_SKETCH,
    REACTION_SKETCH,
    REACTION_SLACK_MS,
    SCREENSHOT_SKETCH,
    BurnPolicy,
    FleetTelemetry,
    QuantileSketch,
    SessionTelemetry,
    SloEngine,
    SloSpec,
    TELEMETRY_VERSION,
    default_slos,
    merge_registry_snapshots,
    registry_prometheus_lines,
    sketches_from_spans,
)


# ---------------------------------------------------------------------------
# QuantileSketch
# ---------------------------------------------------------------------------

class TestQuantileSketch:
    def test_quantile_within_relative_accuracy(self):
        sketch = QuantileSketch()
        values = [1.0 + 0.37 * i for i in range(1000)]
        for v in values:
            sketch.observe(v)
        values.sort()
        for q in (0.05, 0.5, 0.95, 0.99):
            exact = values[min(len(values) - 1,
                               max(0, math.ceil(q * len(values)) - 1))]
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= 2 * DEFAULT_ALPHA * exact

    def test_zero_and_negative_handling(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(0.0)
        sketch.observe(5.0)
        assert sketch.zero_count == 2
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 0.0
        assert sketch.min == 0.0 and sketch.max == 5.0
        with pytest.raises(ValueError):
            sketch.observe(-1.0)

    def test_count_le_is_bucket_granular(self):
        sketch = QuantileSketch()
        for v in (0.0, 1.0, 10.0, 100.0, 1000.0):
            sketch.observe(v)
        assert sketch.count_le(-1.0) == 0
        assert sketch.count_le(0.0) == 1
        assert sketch.count_le(10.5) == 3
        assert sketch.count_le(2000.0) == 5

    def test_sum_is_exact_in_micros(self):
        sketch = QuantileSketch()
        sketch.observe(0.125)
        sketch.observe(0.375)
        assert sketch.sum_micros == 500
        assert sketch.sum == 0.5

    def test_merge_equals_single_sketch(self):
        values = [0.0, 3.0, 7.0, 42.0, 500.0, 500.0, 9999.0]
        whole = QuantileSketch()
        for v in values:
            whole.observe(v)
        left, right = QuantileSketch(), QuantileSketch()
        for v in values[:3]:
            left.observe(v)
        for v in values[3:]:
            right.observe(v)
        assert left.merge(right).snapshot() == whole.snapshot()

    def test_merge_commutative_and_associative(self):
        parts = []
        for lo in range(3):
            part = QuantileSketch()
            for i in range(40):
                part.observe(1.0 + (lo * 40 + i) * 1.7)
            parts.append(part)

        def fold(order):
            acc = QuantileSketch()
            for i in order:
                fresh = QuantileSketch()
                fresh.merge(parts[i])
                acc.merge(fresh)
            return json.dumps(acc.snapshot(), sort_keys=True)

        assert fold([0, 1, 2]) == fold([2, 0, 1]) == fold([1, 2, 0])

    def test_merge_empty_is_identity(self):
        sketch = QuantileSketch()
        sketch.observe(12.0)
        before = sketch.snapshot()
        sketch.merge(QuantileSketch())
        assert sketch.snapshot() == before
        empty = QuantileSketch()
        empty.merge(QuantileSketch())
        assert empty.count == 0 and empty.snapshot()["min"] is None

    def test_merge_alpha_mismatch_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))

    def test_snapshot_roundtrip(self):
        sketch = QuantileSketch()
        for i, v in enumerate((0.0, 2.0, 30.0, 400.0)):
            sketch.observe(v, exemplar={"session": i, "span_id": i,
                                        "trace_id": f"t{i}"})
        snap = json.loads(json.dumps(sketch.snapshot()))
        clone = QuantileSketch.from_snapshot(snap)
        assert clone.snapshot() == sketch.snapshot()
        assert clone.quantile(0.95) == sketch.quantile(0.95)

    def test_exemplar_keeps_smallest_key(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.observe(100.0, exemplar={"session": 5, "span_id": 9,
                                   "trace_id": "late"})
        b.observe(100.0, exemplar={"session": 1, "span_id": 2,
                                   "trace_id": "early"})
        # Same bucket; merge in both orders keeps the smallest key.
        ab = QuantileSketch().merge(a).merge(b)
        ba = QuantileSketch().merge(b).merge(a)
        assert ab.snapshot() == ba.snapshot()
        assert ab.hottest_exemplar()["trace_id"] == "early"

    def test_hottest_exemplar_tracks_highest_bucket(self):
        sketch = QuantileSketch()
        sketch.observe(1.0, exemplar={"session": 0, "span_id": 1,
                                      "trace_id": "low"})
        sketch.observe(900.0, exemplar={"session": 0, "span_id": 2,
                                        "trace_id": "high"})
        assert sketch.hottest_exemplar()["trace_id"] == "high"
        assert QuantileSketch().hottest_exemplar() is None


# ---------------------------------------------------------------------------
# Span-derived session telemetry
# ---------------------------------------------------------------------------

def _span(span_id, name, start, end, parent=None, ops=None, **attributes):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "trace_id": "trace-0", "start_ms": start, "end_ms": end,
            "attributes": attributes, "ops": ops or {}}


def make_spans():
    """One settle window, its analysis subtree, in finish order."""
    return [
        _span(2, "debounce", 100.0, 300.0, parent=1),
        _span(4, "screenshot", 300.0, 300.0, parent=3,
              ops={"screenshot": 1}),
        _span(5, "inference", 300.0, 300.0, parent=3,
              ops={"inference": 1}),
        _span(3, "analyze", 300.0, 310.0, parent=1,
              ops={"decoration": 1}, outcome="ok"),
        _span(1, "session", 0.0, 1000.0),
    ]


class TestSketchesFromSpans:
    def test_stage_sketch_derivation(self):
        profile = PROFILE
        sketches = sketches_from_spans(make_spans(), session=7)
        assert sketches[DEBOUNCE_SKETCH].count == 1
        assert abs(sketches[DEBOUNCE_SKETCH].sum - 200.0) < 3.0
        assert sketches[SCREENSHOT_SKETCH].count == 1
        assert abs(sketches[SCREENSHOT_SKETCH].sum
                   - profile.screenshot_cpu_ms) < 1e-9
        assert sketches[INFERENCE_SKETCH].count == 1
        # Reaction: wall (debounce start 100 -> analyze end 310) plus the
        # analyze subtree's attributed CPU (screenshot+inference+decoration).
        expected = 210.0 + (profile.screenshot_cpu_ms
                            + profile.inference_cpu_ms
                            + profile.decoration_cpu_ms)
        assert sketches[REACTION_SKETCH].count == 1
        assert abs(sketches[REACTION_SKETCH].sum - expected) < 1e-6
        exemplar = sketches[REACTION_SKETCH].hottest_exemplar()
        assert exemplar == {"session": 7, "span_id": 3,
                            "trace_id": "trace-0"}

    def test_failed_analysis_contributes_no_reaction(self):
        spans = [
            _span(2, "debounce", 100.0, 300.0, parent=1),
            _span(3, "analyze", 300.0, 300.0, parent=1, outcome="skipped"),
            _span(1, "session", 0.0, 1000.0),
        ]
        sketches = sketches_from_spans(spans)
        assert sketches[REACTION_SKETCH].count == 0
        assert sketches[DEBOUNCE_SKETCH].count == 1

    def test_from_result_requires_trace(self):
        untraced = SimpleNamespace(spans=None, metrics={})
        with pytest.raises(ValueError):
            SessionTelemetry.from_result(0, untraced)

    def test_from_result_filters_pipeline_counters(self):
        result = SimpleNamespace(
            spans=make_spans(),
            metrics={"counters": {
                "darpa.pipeline.screens_analyzed": 4,
                "darpa.pipeline.retries": 2,
                "darpa.pipeline.events_seen": 99,      # not a health counter
                "darpa.trace.dropped_spans": 1,        # not pipeline-prefixed
            }})
        telemetry = SessionTelemetry.from_result(3, result)
        assert telemetry.counters["screens_analyzed"] == 4
        assert telemetry.counters["retries"] == 2
        assert telemetry.counters["breaker_opens"] == 0
        assert "events_seen" not in telemetry.counters


# ---------------------------------------------------------------------------
# FleetTelemetry
# ---------------------------------------------------------------------------

def fake_result(seed):
    return SimpleNamespace(
        spans=make_spans(),
        metrics={"counters": {"darpa.pipeline.screens_analyzed": seed + 1,
                              "darpa.pipeline.decorations_drawn": seed}})


class TestFleetTelemetry:
    def test_from_results_counts_sessions_and_counters(self):
        fleet = FleetTelemetry.from_results([fake_result(i) for i in range(3)])
        assert fleet.sessions == 3
        assert fleet.counters["screens_analyzed"] == 1 + 2 + 3
        assert fleet.counters["decorations_drawn"] == 0 + 1 + 2
        assert fleet.sketches[REACTION_SKETCH].count == 3

    def test_sharded_merge_is_byte_identical(self):
        results = [fake_result(i) for i in range(6)]
        whole = FleetTelemetry.from_results(results)
        left = FleetTelemetry.from_results(results[:2])
        mid = FleetTelemetry.from_results(results[2:3], start_index=2)
        right = FleetTelemetry.from_results(results[3:], start_index=3)
        merged = FleetTelemetry().merge(right).merge(left).merge(mid)
        assert (json.dumps(merged.snapshot(), sort_keys=True)
                == json.dumps(whole.snapshot(), sort_keys=True))

    def test_snapshot_roundtrip_and_version_gate(self):
        fleet = FleetTelemetry.from_results([fake_result(0)])
        snap = json.loads(json.dumps(fleet.snapshot()))
        assert snap["version"] == TELEMETRY_VERSION
        clone = FleetTelemetry.from_snapshot(snap)
        assert clone.snapshot() == fleet.snapshot()
        snap["version"] = TELEMETRY_VERSION + 1
        with pytest.raises(ValueError):
            FleetTelemetry.from_snapshot(snap)

    def test_prometheus_exposition(self):
        text = FleetTelemetry.from_results([fake_result(1)]).to_prometheus()
        assert '# TYPE darpa_latency_reaction_ms summary' in text
        assert 'darpa_latency_reaction_ms{quantile="0.95"}' in text
        assert 'darpa_pipeline_screens_analyzed_total 2' in text
        assert text.rstrip().endswith("darpa_fleet_sessions 1")

    def test_merge_alpha_mismatch_raises(self):
        with pytest.raises(ValueError):
            FleetTelemetry(alpha=0.01).merge(FleetTelemetry(alpha=0.02))


class TestRegistryMerge:
    def test_counters_add_gauges_take_the_max(self):
        snapshots = [
            {"counters": {"a": 1}, "gauges": {"g": 1.0, "h": -2.0}},
            {"counters": {"a": 2, "b": 5}, "gauges": {"g": 3.5}},
            {"counters": {}, "gauges": {"g": 0.0, "h": -3.0}},
        ]
        merged = merge_registry_snapshots(snapshots)
        assert merged["counters"] == {"a": 3, "b": 5}
        assert merged["gauges"] == {"g": 3.5, "h": -2.0}
        assert merge_registry_snapshots(snapshots[::-1]) == merged

    def test_prometheus_lines_leave_health_counters_to_the_fleet(self):
        # repro metrics prints these after FleetTelemetry's lines, which
        # already declare the health counters: no family may repeat.
        lines = registry_prometheus_lines({
            "counters": {"darpa.pipeline.retries": 4,
                         "darpa.resilience.breaker_opened": 1,
                         "darpa.pipeline.events_seen": 7,
                         "darpa.trace.dropped_spans": 0},
            "gauges": {"darpa.breaker.state": 2.0},
        })
        assert lines == [
            "# TYPE darpa_pipeline_events_seen_total counter",
            "darpa_pipeline_events_seen_total 7",
            "# TYPE darpa_trace_dropped_spans_total counter",
            "darpa_trace_dropped_spans_total 0",
            "# TYPE darpa_breaker_state gauge",
            "darpa_breaker_state 2.0",
        ]


# ---------------------------------------------------------------------------
# SLO engine
# ---------------------------------------------------------------------------

def ratio_session(index, bad, total):
    return SessionTelemetry(session=index, sketches={},
                            counters={"bad": bad, "good": total - bad})


RATIO_SPEC = SloSpec(
    name="ratio", objective=0.9, kind="ratio", bad_counter="bad",
    total_counters=("bad", "good"),
    policies=(BurnPolicy(severity="page", fast_window=2, slow_window=4,
                         burn_threshold=5.0),))


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", objective=1.0, kind="ratio")
        with pytest.raises(ValueError):
            SloSpec(name="x", objective=0.9, kind="median")

    def test_quantile_tally(self):
        sketch = QuantileSketch()
        for v in (10.0, 20.0, 300.0):
            sketch.observe(v)
        spec = SloSpec(name="p95", objective=0.95, kind="quantile",
                       sketch="lat", threshold_ms=100.0)
        telemetry = SessionTelemetry(session=0, sketches={"lat": sketch})
        assert spec.tally(telemetry) == (1, 3)
        assert spec.tally(SessionTelemetry(session=0, sketches={})) == (0, 0)

    def test_ratio_tally(self):
        assert RATIO_SPEC.tally(ratio_session(0, 3, 10)) == (3, 10)

    def test_default_slos_reaction_budget(self):
        profile = PROFILE
        specs = {s.name: s for s in default_slos(ct_ms=200.0)}
        assert specs["reaction_p95"].threshold_ms == (
            200.0 + profile.screenshot_cpu_ms + profile.inference_cpu_ms
            + REACTION_SLACK_MS)
        assert set(specs) == {"reaction_p95", "decoration_success",
                              "fallback_share", "capture_success",
                              "watchdog_aborts", "breaker_recovery"}
        assert specs["breaker_recovery"].bad_counter == "probe_failures"


class TestSloEngine:
    def test_clean_series_yields_no_alerts(self):
        series = [ratio_session(i, 0, 10) for i in range(20)]
        report = SloEngine([RATIO_SPEC]).evaluate(series)
        assert report.all_met
        assert report.alerts == []
        assert report.results[0].compliance == 1.0
        assert report.results[0].burn_rate == 0.0

    def test_alert_fires_on_transition_and_rearms(self):
        # budget 0.1, threshold 5.0: both windows must burn >= 50% bad.
        bads = [0, 0, 10, 10, 0, 0, 10, 10]
        series = [ratio_session(i, b, 10) for i, b in enumerate(bads)]
        report = SloEngine([RATIO_SPEC]).evaluate(series, session_ms=1000.0)
        alerts = report.alerts
        assert [a.session_index for a in alerts] == [3, 6]
        first = alerts[0]
        assert first.severity == "page"
        assert first.sim_time_ms == 4000.0
        assert first.fast_burn == pytest.approx(10.0)
        assert first.slow_burn == pytest.approx(5.0)

    def test_report_is_deterministic(self):
        bads = [0, 2, 10, 10, 4, 0, 9, 10, 1, 0]
        series = [ratio_session(i, b, 10) for i, b in enumerate(bads)]
        engine = SloEngine([RATIO_SPEC])
        a = engine.evaluate(series).to_dict()
        b = engine.evaluate(series).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["all_met"] is False
        assert a["slos"][0]["bad"] == sum(bads)

    def test_empty_windows_do_not_fire(self):
        series = [SessionTelemetry(session=i, sketches={}) for i in range(10)]
        report = SloEngine([RATIO_SPEC]).evaluate(series)
        assert report.all_met and report.alerts == []
