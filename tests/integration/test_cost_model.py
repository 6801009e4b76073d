"""One cost model: every reader follows ``repro.android.device.PROFILE``.

No reader takes a profile of its own, so patching the one instance must
move the span index, the latency sketches, the profile fold, the
span-rebuilt perf report and the run loader's reaction budget together.
"""

import dataclasses

import pytest

from repro.android import device
from repro.core.observability import (
    SpanIndex,
    ops_from_spans,
    report_from_spans,
    session_root,
)
from repro.core.telemetry import (
    INFERENCE_SKETCH,
    REACTION_SLACK_MS,
    SCREENSHOT_SKETCH,
    sketches_from_spans,
)
from repro.ops.artifacts import load_run
from repro.profiling import profile_from_spans
from repro.rundir import RunListing
from tests.ops.test_goldens import CT_MS, RUN_DIR


@pytest.fixture(scope="module")
def spans():
    return RunListing.scan(RUN_DIR).spans()[0]


def modelled_cpu_ms(spans, profile):
    """The session's cost-model CPU, summed here by hand."""
    ops = ops_from_spans(spans)
    return (ops["event_delivered"] * profile.event_cpu_ms
            + ops["screenshot"] * profile.screenshot_cpu_ms
            + ops["inference"] * profile.inference_cpu_ms
            + ops["decoration"] * profile.decoration_cpu_ms)


def readings(spans):
    model = load_run(RUN_DIR, ct_ms=CT_MS)
    sketches = sketches_from_spans(spans)
    return {
        "index_cpu_ms": sum(SpanIndex.build(spans).cpu_ms),
        "trace_cpu_ms": sum(view.cpu_ms for view in model.traces[0].spans),
        "fold_cpu_ms": profile_from_spans(spans).total_cpu_us / 1000.0,
        "screenshot_ms": sketches[SCREENSHOT_SKETCH].sum,
        "inference_ms": sketches[INFERENCE_SKETCH].sum,
        "report_cpu_pct": report_from_spans(spans).cpu_pct,
        "reaction_budget_ms": model.reaction_budget_ms,
    }


def test_patching_the_one_profile_moves_every_reader(spans, monkeypatch):
    stock = device.PROFILE
    before = readings(spans)
    costly = dataclasses.replace(stock, screenshot_cpu_ms=45.0,
                                 inference_cpu_ms=250.0)
    monkeypatch.setattr(device, "PROFILE", costly)
    after = readings(spans)

    ops = ops_from_spans(spans)
    added_ms = (modelled_cpu_ms(spans, costly)
                - modelled_cpu_ms(spans, stock))
    assert added_ms == ops["screenshot"] * 15.0 + ops["inference"] * 150.0
    for name in ("index_cpu_ms", "trace_cpu_ms", "fold_cpu_ms"):
        assert before[name] == pytest.approx(modelled_cpu_ms(spans, stock))
        assert after[name] == pytest.approx(modelled_cpu_ms(spans, costly))
    assert after["screenshot_ms"] == pytest.approx(ops["screenshot"] * 45.0)
    assert after["inference_ms"] == pytest.approx(ops["inference"] * 250.0)
    root = session_root(spans)
    assert after["report_cpu_pct"] - before["report_cpu_pct"] == \
        pytest.approx(added_ms / (root["end_ms"] - root["start_ms"]) * 100.0)
    assert before["reaction_budget_ms"] == \
        CT_MS + 30.0 + 100.0 + REACTION_SLACK_MS
    assert after["reaction_budget_ms"] == \
        CT_MS + 45.0 + 250.0 + REACTION_SLACK_MS
