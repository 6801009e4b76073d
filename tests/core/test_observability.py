"""Unit tests for repro.core.observability: tracer, profiler,
span-derived reporting, and the DarpaStats counter record."""

import io
import json
import math

import pytest

from repro.android.clock import SimulatedClock
from repro.android.device import PROFILE, Device, PerfMeter, PerfOp
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy
from repro.core.observability import (
    COUNTER_METRICS,
    NULL_TRACER,
    OVERHEAD_STEP,
    PlanProfiler,
    Span,
    Tracer,
    ops_from_spans,
    report_from_spans,
    session_root,
    stage_cpu_ms,
)
from repro.core.pipeline import DarpaStats

from tests.core.test_pipeline import make_session


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_parent_ids(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.advance(5)
            with tracer.span("inner") as inner:
                clock.advance(2)
            assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert inner.duration_ms == 2.0
        assert outer.duration_ms == 7.0

    def test_end_span_enforces_lifo(self):
        tracer = Tracer(SimulatedClock())
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ValueError):
            tracer.end_span(outer)

    def test_emit_retroactive_span(self):
        clock = SimulatedClock()
        clock.advance(100)
        tracer = Tracer(clock)
        span = tracer.emit("debounce", start_ms=40.0, end_ms=100.0, package="p")
        assert span.closed and span.duration_ms == 60.0
        with pytest.raises(ValueError):
            tracer.emit("bad", start_ms=10.0, end_ms=5.0)

    def test_ring_buffer_drops_oldest_and_counts(self):
        clock = SimulatedClock()
        tracer = Tracer(clock, capacity=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.finished] == ["s2", "s3"]
        assert tracer.dropped == 2

    def test_dropped_spans_surface_as_registry_counter(self, monkeypatch):
        """A traced session exports the tracer's eviction count among its
        metrics counters: at zero when nothing was dropped, equal to
        ``Tracer.dropped`` when the ring buffer overflowed."""
        from repro.bench import experiments
        from repro.core.observability import DROPPED_SPANS_COUNTER

        session = experiments.build_runtime_fleet(
            n_apps=1, seed=0, duration_ms=5_000.0)[0]

        def run(capacity):
            tracers = []

            def small_tracer(clock, trace_id):
                tracers.append(Tracer(clock, trace_id, capacity=capacity))
                return tracers[-1]

            monkeypatch.setattr(experiments, "Tracer", small_tracer)
            result = experiments.run_darpa_session(
                session, "oracle", ct_ms=200.0, mode="full",
                duration_ms=5_000.0, monkey_seed=0, trace=True)
            return result, tracers[0]

        healthy, tracer = run(capacity=65536)
        assert tracer.dropped == 0
        assert healthy.metrics["counters"][DROPPED_SPANS_COUNTER] == 0
        overflowed, tracer = run(capacity=8)
        assert tracer.dropped == len(healthy.spans) - 8 > 0
        assert overflowed.metrics["counters"][DROPPED_SPANS_COUNTER] \
            == tracer.dropped
        # The pipeline counters are the service's, untouched by tracing.
        assert {k: v for k, v in overflowed.metrics["counters"].items()
                if k != DROPPED_SPANS_COUNTER} == \
            {k: v for k, v in healthy.metrics["counters"].items()
             if k != DROPPED_SPANS_COUNTER}

    def test_perf_attribution_innermost_only(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        meter = PerfMeter()
        tracer.observe_perf(meter)
        with tracer.span("outer") as outer:
            meter.record(PerfOp.EVENT_DELIVERED)
            with tracer.span("inner") as inner:
                meter.record(PerfOp.INFERENCE)
        assert outer.ops == {"event_delivered": 1}
        assert inner.ops == {"inference": 1}  # no parent roll-up
        meter.record(PerfOp.DECORATION)  # no open span
        assert tracer.orphan_ops == {"decoration": 1}

    def test_perf_reset_clears_attributions(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        meter = PerfMeter()
        tracer.observe_perf(meter)
        meter.enable_component("monitoring")
        with tracer.span("s") as s:
            meter.record(PerfOp.SCREENSHOT)
        meter.reset()
        assert s.ops == {}
        assert tracer.components == []

    def test_jsonl_is_sorted_and_parseable(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("a", k=1):
            pass
        fp = io.StringIO()
        assert tracer.write_jsonl(fp) == 1
        line = fp.getvalue().strip()
        parsed = json.loads(line)
        assert parsed["name"] == "a"
        assert line == json.dumps(parsed, sort_keys=True)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", a=1) as span:
            NULL_TRACER.annotate(span, b=2)
            NULL_TRACER.set_attribute("c", 3)
        assert span.attributes == {}  # shared singleton never mutated
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.emit("y", 0.0, 1.0) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(SimulatedClock(), capacity=0)


# ---------------------------------------------------------------------------
# PlanProfiler
# ---------------------------------------------------------------------------

class TestPlanProfiler:
    def test_attribute_shares_sum_to_total(self):
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("conv0", 300)
        prof.record_step("conv1", 100)
        shares = prof.attribute(100.0)
        assert [s["step"] for s in shares] == ["conv0", "conv1"]
        assert sum(s["cpu_ms"] for s in shares) == pytest.approx(100.0)
        assert shares[0]["cpu_ms"] == pytest.approx(75.0)

    def test_start_forward_resets_steps(self):
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("a", 10)
        prof.start_forward(batch=1)
        assert prof.steps == [] and prof.forwards == 2

    def test_zero_macs_fold_into_overhead(self):
        # A forward made only of zero-MAC plumbing still accounts for
        # the whole charge: it all lands in the explicit overhead frame.
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("a", 0)
        assert prof.attribute(100.0) == [
            {"step": OVERHEAD_STEP, "macs": 0, "cpu_ms": 100.0}]

    def test_mixed_zero_mac_steps_sum_exactly(self):
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("conv0", 300)
        prof.record_step("reshape", 0)
        prof.record_step("conv1", 100)
        shares = prof.attribute(100.0)
        assert [s["step"] for s in shares] == ["conv0", "conv1",
                                               OVERHEAD_STEP]
        assert math.fsum(s["cpu_ms"] for s in shares) == 100.0
        assert shares[0]["cpu_ms"] == pytest.approx(75.0)
        assert shares[2]["macs"] == 0

    def test_plan_reports_macs_per_forward(self):
        import numpy as np
        from repro.vision.nn.infer import InferencePlan
        from repro.vision.nn.layers import Conv2D, LeakyReLU, MaxPool2D

        rng = np.random.default_rng(0)
        plan = InferencePlan([Conv2D(3, 4, kernel=3, pad=1, rng=rng),
                              LeakyReLU(0.1), MaxPool2D(2)])
        prof = PlanProfiler()
        plan.profiler = prof
        plan.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))
        # MACs of the pre-pool GEMM: oh*ow*k*k*c*oc = 8*8*3*3*3*4
        assert prof.steps == [("conv0", 8 * 8 * 3 * 3 * 3 * 4)]


# ---------------------------------------------------------------------------
# Span-derived reporting
# ---------------------------------------------------------------------------

def _traced_meter_run():
    clock = SimulatedClock()
    tracer = Tracer(clock, trace_id="t")
    meter = PerfMeter()
    tracer.observe_perf(meter)
    root = tracer.start_span("session")
    meter.enable_component("monitoring")
    meter.enable_component("detection")
    with tracer.span("analyze"):
        meter.record(PerfOp.SCREENSHOT)
        with tracer.span("inference"):
            meter.record(PerfOp.INFERENCE)
    meter.record(PerfOp.EVENT_DELIVERED, 7)
    clock.advance(60_000)
    tracer.end_span(root, components=sorted(tracer.components))
    return tracer, meter


class TestSpanDerivedReporting:
    def test_ops_counted_exactly_once(self):
        tracer, meter = _traced_meter_run()
        assert ops_from_spans(tracer.export()) == {
            k: v for k, v in meter.counts().items() if v}

    def test_report_bit_identical_to_meter(self):
        tracer, meter = _traced_meter_run()
        assert report_from_spans(tracer.export()) == meter.report(60_000.0)

    def test_stage_cpu_breakdown(self):
        tracer, _ = _traced_meter_run()
        cpu = stage_cpu_ms(tracer.export())
        p = PROFILE
        assert cpu["analyze"] == pytest.approx(p.screenshot_cpu_ms)
        assert cpu["inference"] == pytest.approx(p.inference_cpu_ms)

    def test_session_root_requires_unique_root(self):
        tracer, _ = _traced_meter_run()
        spans = tracer.export()
        assert session_root(spans)["name"] == "session"
        with pytest.raises(ValueError):
            session_root([s for s in spans if s["name"] != "session"])

    def test_root_must_be_closed_without_duration(self):
        span = Span(name="session", span_id=1, parent_id=None,
                    trace_id="t", start_ms=0.0).to_dict()
        with pytest.raises(ValueError):
            report_from_spans([span])


# ---------------------------------------------------------------------------
# Truncated ring-buffer dumps: the partial-report contract
# ---------------------------------------------------------------------------

def _truncated_meter_run(capacity):
    """The `_traced_meter_run` workload on a tiny tracer ring buffer."""
    clock = SimulatedClock()
    tracer = Tracer(clock, trace_id="t", capacity=capacity)
    meter = PerfMeter()
    tracer.observe_perf(meter)
    root = tracer.start_span("session")
    meter.enable_component("monitoring")
    meter.enable_component("detection")
    with tracer.span("analyze"):
        meter.record(PerfOp.SCREENSHOT)
        with tracer.span("inference"):
            meter.record(PerfOp.INFERENCE)
    meter.record(PerfOp.EVENT_DELIVERED, 7)
    clock.advance(60_000)
    tracer.end_span(root, components=sorted(tracer.components))
    return tracer, meter


class TestTruncatedDumps:
    """Oldest-first eviction mid-session: reports stay defined, partial,
    and never over-count — the contract the docstrings promise."""

    def test_eviction_is_counted_never_silent(self):
        tracer, _ = _truncated_meter_run(capacity=2)
        # 3 spans finished, 2 kept: exactly one drop, and it's counted.
        assert len(tracer.finished) == 2
        assert tracer.dropped == 1

    def test_root_survives_mid_session_truncation(self):
        # The session root closes last, so oldest-first eviction can
        # never take it while any other span survives: duration (and
        # the baseline share of a rebuilt report) stays exact.
        tracer, _ = _truncated_meter_run(capacity=2)
        spans = tracer.export()
        assert session_root(spans)["name"] == "session"

    def test_stage_cpu_covers_only_surviving_spans(self):
        full_tracer, _ = _truncated_meter_run(capacity=64)
        trunc_tracer, _ = _truncated_meter_run(capacity=2)
        full = stage_cpu_ms(full_tracer.export())
        partial = stage_cpu_ms(trunc_tracer.export())
        # The evicted "inference" span took its attributed CPU with it.
        assert "inference" not in partial
        for stage in sorted(partial):
            assert partial[stage] <= full[stage] + 1e-12

    def test_partial_report_never_exceeds_meter(self):
        tracer, meter = _truncated_meter_run(capacity=2)
        partial = report_from_spans(tracer.export())
        complete = meter.report(60_000.0)
        # Defined, not an error — and every cost figure undercounts.
        assert partial.cpu_pct <= complete.cpu_pct
        assert partial.power_mw <= complete.power_mw
        # Op totals are exactly the surviving spans' attributions.
        assert ops_from_spans(tracer.export()) != {
            k: v for k, v in meter.counts().items() if v}

    def test_rebuilt_equals_meter_when_nothing_dropped(self):
        tracer, meter = _truncated_meter_run(capacity=64)
        assert tracer.dropped == 0
        assert report_from_spans(tracer.export()) == meter.report(60_000.0)

    def test_root_eviction_raises(self):
        # Truncate so hard even the root is gone: session_root (and so
        # report_from_spans) refuses rather than fabricating a report.
        tracer, _ = _truncated_meter_run(capacity=2)
        spans = [s for s in tracer.export() if s["name"] != "session"]
        with pytest.raises(ValueError):
            report_from_spans(spans)


# ---------------------------------------------------------------------------
# DarpaStats counter record + explicit reset (the stop/start fix)
# ---------------------------------------------------------------------------

class TestDarpaStats:
    def test_metrics_export_counters_by_metric_name(self):
        stats = DarpaStats()
        stats.retries += 2
        stats.breaker_opened += 1
        counters = stats.metrics()["counters"]
        assert counters["darpa.pipeline.retries"] == 2
        assert counters["darpa.resilience.breaker_opened"] == 1
        assert stats.metrics()["gauges"] == {}

    def test_snapshot_covers_every_counter(self):
        counters = DarpaStats().metrics()["counters"]
        assert list(counters) == list(COUNTER_METRICS.values())
        assert set(counters.values()) == {0}

    def test_value_equality(self):
        a, b = DarpaStats(), DarpaStats()
        assert a == b
        a.cache_hits += 1
        assert a != b

    def test_explicit_reset_zeroes_counters_and_records(self):
        stats = DarpaStats()
        stats.events_seen += 5
        stats.records.append(object())
        stats.reset()
        assert stats.events_seen == 0 and stats.records == []

    def test_stats_survive_stop_start_cycles(self):
        """Counters are cumulative across lifecycle transitions: only an
        explicit reset_stats() zeroes them."""
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(2000)
        seen = service.stats.events_seen
        analyzed = service.stats.screens_analyzed
        assert seen > 0 and analyzed > 0
        service.stop()
        service.start()
        assert service.stats.events_seen == seen
        assert service.stats.screens_analyzed == analyzed
        device.clock.advance(3000)
        assert service.stats.screens_analyzed > analyzed  # keeps counting
        service.reset_stats()
        assert service.stats.events_seen == 0
        assert service.stats.screens_analyzed == 0
        assert service.stats.records == []

    def test_reset_stats_with_perf_zeroes_meter_and_cache_tallies(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(2000)
        assert any(device.perf.counts().values())
        assert service.stats.cache_misses > 0
        service.reset_stats(reset_perf=True)
        assert not any(device.perf.counts().values())
        assert service.stats.cache_hits == service.stats.cache_misses == 0


# ---------------------------------------------------------------------------
# DarpaService wiring
# ---------------------------------------------------------------------------

class TestServiceTracing:
    def _traced_session(self):
        device, app, detector, service = make_session()
        tracer = Tracer(device.clock, trace_id="svc")
        traced = DarpaService(
            device, detector, config=service.config,
            policy=ScreenshotPolicy(consent_given=True), tracer=tracer)
        return device, app, traced, tracer

    def test_pipeline_emits_expected_span_taxonomy(self):
        device, app, traced, tracer = self._traced_session()
        traced.start()
        app.launch()
        device.clock.advance(6000)
        names = {s.name for s in tracer.finished}
        assert {"event", "debounce", "analyze", "screenshot",
                "inference", "decorate"} <= names
        assert not tracer.open_spans
        assert tracer.orphan_ops == {}

    def test_traced_run_matches_untraced_stats(self):
        device, app, detector, plain = make_session()
        plain.start()
        app.launch()
        device.clock.advance(6000)
        device2, app2, traced, tracer = self._traced_session()
        traced.start()
        app2.launch()
        device2.clock.advance(6000)
        assert plain.stats == traced.stats
        assert device.perf.counts() == device2.perf.counts()

    def test_gauges_track_breaker_and_cache(self):
        device, app, traced, tracer = self._traced_session()
        traced.start()
        app.launch()
        device.clock.advance(6000)
        assert traced.stats.metrics()["gauges"] == {
            "darpa.breaker.state": 0.0,  # CLOSED
            "darpa.cache.entries": float(len(traced.screen_cache)),
        }

    def test_span_ops_reproduce_meter_counts(self):
        device, app, traced, tracer = self._traced_session()
        traced.start()
        app.launch()
        device.clock.advance(6000)
        derived = ops_from_spans(s.to_dict() for s in tracer.finished)
        expected = {k: v for k, v in device.perf.counts().items() if v}
        assert derived == expected
