"""Folding span dumps into Profiles: stacks, plan steps, orphans.

The fold contract: every span becomes exactly one frame keyed by its
parent-chain stack path; CPU comes from the span's own op attributions
(never rolled up); inference spans with a ``plan_ops`` attribute grow
per-step child frames whose microseconds sum back to the span's total
exactly (the rounding residue stays on the span's own frame).
"""

import dataclasses

import pytest

from repro.android import device
from repro.core.observability import (
    OVERHEAD_STEP,
    PerfMeter,
    PerfOp,
    SimulatedClock,
    Tracer,
)
from repro.profiling import (
    PLAN_OPS_ATTR,
    dropped_from_metrics,
    profile_from_result,
    profile_from_spans,
    profile_from_results,
)


def span(name, span_id, parent_id=None, ops=None, attributes=None):
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "trace_id": "t", "start_ms": 0.0, "end_ms": 1.0,
        "attributes": attributes or {}, "ops": ops or {},
    }


SESSION = [
    span("session", 1),
    span("event", 2, 1, ops={PerfOp.EVENT_DELIVERED.value: 2}),
    span("analyze", 3, 2, ops={PerfOp.SCREENSHOT.value: 1}),
    span("inference", 4, 3, ops={PerfOp.INFERENCE.value: 1}),
]


class TestStacks:
    def test_stack_paths_follow_parent_chain(self):
        prof = profile_from_spans(SESSION)
        assert sorted(prof.frames) == [
            ("session",),
            ("session", "event"),
            ("session", "event", "analyze"),
            ("session", "event", "analyze", "inference"),
        ]
        assert prof.sessions == 1
        assert prof.orphan_spans == 0

    def test_cpu_is_innermost_attribution_in_exact_microseconds(self):
        prof = profile_from_spans(SESSION)  # the default cost model
        frames = prof.frames
        assert frames[("session",)].cpu_us == 0
        assert frames[("session", "event")].cpu_us == 600        # 2 x 0.3ms
        assert frames[("session", "event", "analyze")].cpu_us == 30_000
        assert frames[("session", "event", "analyze",
                       "inference")].cpu_us == 100_000

    def test_device_profile_scales_the_fold(self, monkeypatch):
        monkeypatch.setattr(device, "PROFILE", dataclasses.replace(
            device.PROFILE, inference_cpu_ms=250.0))
        prof = profile_from_spans(SESSION)
        assert prof.frames[("session", "event", "analyze",
                            "inference")].cpu_us == 250_000

    def test_semicolons_in_names_are_sanitized(self):
        prof = profile_from_spans([span("a;b", 1)])
        assert ("a_b",) in prof.frames


class TestPlanOps:
    PLAN = [
        {"step": "conv0/gemm", "macs": 3_000, "cpu_ms": 75.0},
        {"step": "conv1/gemm", "macs": 1_000, "cpu_ms": 25.0},
    ]

    def fold(self, plan):
        spans = [
            span("session", 1),
            span("inference", 2, 1, ops={PerfOp.INFERENCE.value: 1},
                 attributes={PLAN_OPS_ATTR: plan}),
        ]
        return profile_from_spans(spans)

    def test_steps_become_child_frames_with_macs(self):
        prof = self.fold(self.PLAN)
        conv0 = prof.frames[("session", "inference", "conv0/gemm")]
        assert (conv0.cpu_us, conv0.macs) == (75_000, 3_000)
        conv1 = prof.frames[("session", "inference", "conv1/gemm")]
        assert (conv1.cpu_us, conv1.macs) == (25_000, 1_000)
        assert prof.mac_share(("session", "inference",
                               "conv0/gemm")) == pytest.approx(0.75)

    def test_subtree_total_equals_span_total_exactly(self):
        # Per-step rounding residue stays on the span's own frame, so
        # the inference subtree sums to the span's 100ms exactly.
        plan = [
            {"step": "conv0/gemm", "macs": 1, "cpu_ms": 100.0 / 3.0},
            {"step": "conv1/gemm", "macs": 1, "cpu_ms": 100.0 / 3.0},
            {"step": "conv2/gemm", "macs": 1, "cpu_ms": 100.0 / 3.0},
        ]
        prof = self.fold(plan)
        subtree = sum(stats.cpu_us for stack, stats in prof.frames.items()
                      if stack[:2] == ("session", "inference"))
        assert subtree == 100_000

    def test_overhead_step_folds_like_any_other(self):
        plan = [
            {"step": "conv0/gemm", "macs": 4_000, "cpu_ms": 80.0},
            {"step": OVERHEAD_STEP, "macs": 0, "cpu_ms": 20.0},
        ]
        prof = self.fold(plan)
        overhead = prof.frames[("session", "inference", OVERHEAD_STEP)]
        assert (overhead.cpu_us, overhead.macs) == (20_000, 0)

    def test_non_list_plan_ops_is_ignored(self):
        spans = [span("session", 1,
                      attributes={PLAN_OPS_ATTR: "not-a-plan"})]
        prof = profile_from_spans(spans)
        assert sorted(prof.frames) == [("session",)]


class TestOrphans:
    def test_broken_parent_chain_roots_and_counts(self):
        spans = [
            span("session", 1),
            # Parent 99 was evicted before export: orphaned, re-rooted.
            span("inference", 4, 99, ops={PerfOp.INFERENCE.value: 1}),
        ]
        prof = profile_from_spans(spans, dropped_spans=3)
        assert prof.orphan_spans == 1
        assert prof.dropped_spans == 3
        assert prof.frames[("inference",)].cpu_us == 100_000

    def test_transitive_orphans_root_at_surviving_ancestor(self):
        spans = [
            span("analyze", 3, 99),
            span("inference", 4, 3, ops={PerfOp.INFERENCE.value: 1}),
        ]
        prof = profile_from_spans(spans)
        # Only the chain break itself is an orphan; its child keeps a
        # stack rooted at the surviving ancestor.
        assert prof.orphan_spans == 1
        assert ("analyze", "inference") in prof.frames


class TestRealTracedRun:
    def traced(self):
        clock = SimulatedClock()
        tracer = Tracer(clock, trace_id="t")
        meter = PerfMeter()
        tracer.observe_perf(meter)
        root = tracer.start_span("session")
        with tracer.span("analyze"):
            meter.record(PerfOp.SCREENSHOT)
            with tracer.span("inference"):
                meter.record(PerfOp.INFERENCE)
        clock.advance(60_000)
        tracer.end_span(root)
        return tracer, meter

    def test_fold_matches_meter_cpu_exactly(self):
        tracer, meter = self.traced()
        prof = profile_from_spans(tracer.export())
        total_ms = sum(
            n * cost for n, cost in [(1, 30.0), (1, 100.0)])
        assert prof.total_cpu_us == int(round(total_ms * 1000.0))

    def test_result_fold_reads_dropped_from_metrics(self):
        class Result:
            spans = SESSION
            metrics = {"counters": {"darpa.trace.dropped_spans": 7}}

        prof = profile_from_result(Result())
        assert prof.dropped_spans == 7
        assert dropped_from_metrics(Result.metrics) == 7
        assert dropped_from_metrics({}) == 0
        assert dropped_from_metrics({"counters": "bogus"}) == 0

    def test_results_fold_merges_in_any_order(self):
        class Result:
            def __init__(self, spans):
                self.spans = spans
                self.metrics = {}

        results = [Result(SESSION), Result(SESSION[:2])]
        forward = profile_from_results(results)
        backward = profile_from_results(list(reversed(results)))
        assert forward.to_json() == backward.to_json()
        assert forward.sessions == 2
