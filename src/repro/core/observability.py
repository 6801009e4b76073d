"""Observability for the DARPA serving path: tracing, metrics, profiling.

The paper's evaluation is built on *per-stage* timing (Tables VII/VIII
decompose overhead by component; Figure 8 trades debounce settle time
against coverage), but the pipeline historically exposed only coarse
end-of-run counters.  This module adds the missing middle layer — all
of it on the simulated clock, with zero new dependencies and zero
effect on any measured number:

- :class:`Tracer` emits nested :class:`Span`\\ s
  (``session → event → debounce → screenshot → cache_probe →
  inference|fallback → decorate``) carrying attributes such as the
  screen fingerprint, cache hit/miss, retry attempt and breaker state.
  Finished spans land in a bounded in-memory ring buffer and export as
  deterministic JSONL;
- :data:`COUNTER_METRICS` names every counter of the pipeline's
  per-session record (``repro.core.pipeline.DarpaStats``) for export.
  Per-stage counts and latencies are not counters: they are read off
  the span dump (:class:`SpanIndex`);
- :class:`PlanProfiler` hooks :class:`repro.vision.nn.infer.InferencePlan`
  execution, attributing per-step cost-model charges (MAC-weighted
  shares of the inference CPU budget) to the enclosing span;
- :func:`report_from_spans` rebuilds a :class:`~repro.android.device.PerfReport`
  purely from exported spans.  Because every cost-model charge is
  attributed to exactly one span, the rebuilt report is **bit-identical**
  to the device meter's — which the benchmarks and the differential
  tests assert.

Determinism rules: span ids are sequential per tracer, timestamps come
from the :class:`~repro.android.clock.SimulatedClock`, no RNG is ever
consulted, and JSONL lines are serialized with sorted keys — two runs
of the same seeded session produce byte-identical trace files.
Tracing off (the default) is bit-inert: the ``NULL_TRACER`` singleton
records nothing and the pipeline takes no extra RNG draws or perf
charges either way.
"""

from __future__ import annotations

import json
import math
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    ContextManager,
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.android.clock import SimulatedClock
from repro.android import device as _device
from repro.android.device import PerfMeter, PerfOp, PerfReport

# ---------------------------------------------------------------------------
# Metric naming (see DESIGN.md "Metric naming"):
#
#   darpa.pipeline.<counter>       — DarpaStats work and fault counters
#   darpa.resilience.<counter>     — DarpaStats breaker transition counters
#   darpa.trace.dropped_spans      — spans the tracer ring buffer evicted
#   darpa.breaker.state            — gauge: 0 closed / 1 half-open / 2 open
#   darpa.cache.entries            — gauge: live fingerprint-cache entries
# ---------------------------------------------------------------------------

#: The ``darpa.pipeline`` counters that count faults and the pipeline's
#: answers to them, all zero on a fault-free run; a session's
#: ``SessionResult.resilience`` holds exactly these.
FAULT_COUNTERS: Tuple[str, ...] = (
    "screenshot_failures", "retries", "detector_failures", "breaker_opens",
    "fallback_detections", "deadline_skips", "overlay_rejections")

#: Every ``DarpaStats`` counter and its metric name, in export order.
COUNTER_METRICS: Dict[str, str] = {
    **{name: f"darpa.pipeline.{name}" for name in (
        "events_seen", "screens_analyzed", "auis_flagged",
        "decorations_drawn", "bypass_clicks", "cache_hits", "cache_misses",
    ) + FAULT_COUNTERS},
    **{name: f"darpa.resilience.{name}" for name in (
        "breaker_opened", "breaker_half_opened", "breaker_closed",
        "probe_successes", "probe_failures")},
}

#: Every ``DarpaStats`` gauge and its metric name, in export order.
GAUGE_METRICS: Dict[str, str] = {
    "breaker_state": "darpa.breaker.state",
    "cache_entries": "darpa.cache.entries",
}

#: Session metrics counter holding :attr:`Tracer.dropped`, the spans the
#: ring buffer evicted.  Silent drops would corrupt span-derived totals,
#: so the drop count itself must be observable (and is surfaced by
#: ``repro trace`` and the profile warning).
DROPPED_SPANS_COUNTER = "darpa.trace.dropped_spans"

#: Step label :meth:`PlanProfiler.attribute` folds zero-MAC steps (and
#: the floating-point residual of the weighted shares) into, so the
#: per-step costs sum to the attributed total exactly.
OVERHEAD_STEP = "overhead"


def op_cpu_ms() -> Dict[str, float]:
    """CPU-ms charged per unit of each billable operation."""
    profile = _device.PROFILE
    return {
        PerfOp.EVENT_DELIVERED.value: profile.event_cpu_ms,
        PerfOp.SCREENSHOT.value: profile.screenshot_cpu_ms,
        PerfOp.INFERENCE.value: profile.inference_cpu_ms,
        PerfOp.FALLBACK_INFERENCE.value: profile.fallback_cpu_ms,
        PerfOp.CACHE_PROBE.value: profile.cache_probe_cpu_ms,
        PerfOp.DECORATION.value: profile.decoration_cpu_ms,
        PerfOp.APP_FRAME.value: 0.0,
    }


def ops_cpu_ms(ops: Mapping[str, int], costs: Mapping[str, float]) -> float:
    """Cost-model CPU of one span's op charges, summed in charge order."""
    return sum(int(n) * costs[op] for op, n in ops.items())


# ---------------------------------------------------------------------------
# Spans + Tracer
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One named, timed region of a traced run.

    ``ops`` holds the cost-model charges attributed while this span was
    the innermost open one (children do NOT roll up into parents, so
    summing ``ops`` across all spans of a trace reproduces the device
    meter's totals exactly once).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    start_ms: float
    end_ms: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_ms - self.start_ms

    def charge(self, op: PerfOp, n: int) -> None:
        key = op.value
        self.ops[key] = self.ops.get(key, 0) + n

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attributes": dict(self.attributes),
            "ops": dict(self.ops),
        }


class NullTracer:
    """The do-nothing tracer: every hook is inert, every export empty.

    The pipeline calls the tracer unconditionally; when tracing is off
    this singleton absorbs the calls without allocating spans or
    observing the perf meter — which is what keeps the disabled mode
    bit-inert (and nearly free: :meth:`span` hands out one shared,
    stateless context manager instead of entering a generator).
    """

    enabled = False

    _NULL_SPAN = Span(name="null", span_id=0, parent_id=None,
                      trace_id="null", start_ms=0.0, end_ms=0.0)
    _NULL_CONTEXT = nullcontext(_NULL_SPAN)

    def span(self, name: str, **attributes: object) -> ContextManager[Span]:
        return self._NULL_CONTEXT

    def start_span(self, name: str, **attributes: object) -> Span:
        return self._NULL_SPAN

    def end_span(self, span: Span, **attributes: object) -> None:
        pass

    def emit(self, name: str, start_ms: float, end_ms: float,
             **attributes: object) -> Optional[Span]:
        return None

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def annotate(self, span: Span, **attributes: object) -> None:
        pass

    def observe_perf(self, meter: PerfMeter) -> None:
        pass

    def export(self) -> List[Dict[str, object]]:
        return []


#: Shared inert tracer — safe because it holds no state.
NULL_TRACER = NullTracer()


class Tracer:
    """Emits nested spans on the simulated clock.

    Finished spans are kept in a ring buffer of ``capacity`` (old spans
    fall off first and are counted in :attr:`dropped`) and can be
    exported as dicts or JSONL.  The exported spans are the one record
    of per-stage counts and costs; the tracer keeps no metrics of its
    own.

    Attach to a device's :class:`~repro.android.device.PerfMeter` with
    :meth:`observe_perf`: every subsequent cost-model charge is
    attributed to the innermost open span (charges with no open span
    accumulate in :attr:`orphan_ops`, which a healthy wiring keeps
    empty), and component residency/reset events are mirrored so
    :func:`report_from_spans` can rebuild the meter's report exactly.
    """

    enabled = True

    def __init__(self, clock: SimulatedClock, trace_id: str = "trace",
                 capacity: int = 65536):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.clock = clock
        self.trace_id = trace_id
        self.capacity = capacity
        self.finished: Deque[Span] = deque(maxlen=capacity)
        #: Finished spans the ring buffer evicted (observability of the
        #: observer: silent truncation would corrupt span-derived totals).
        self.dropped = 0
        self.orphan_ops: Dict[str, int] = {}
        self.components: List[str] = []
        self._stack: List[Span] = []
        self._seq = 0

    # -- span lifecycle -------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def open_spans(self) -> List[Span]:
        return list(self._stack)

    def start_span(self, name: str, **attributes: object) -> Span:
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._seq,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self.trace_id,
            start_ms=self.clock.now_ms,
            attributes=dict(attributes),
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **attributes: object) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span")
        self._stack.pop()
        span.attributes.update(attributes)
        span.end_ms = self.clock.now_ms
        self._finish(span)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        span = self.start_span(name, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    def emit(self, name: str, start_ms: float, end_ms: float,
             **attributes: object) -> Span:
        """Record an already-elapsed region as a closed span.

        Used for stages whose start is only known in hindsight — e.g.
        the debounce settle window, which begins at the last UI event
        and ends ``ct`` ms later when the quiescence timer fires.
        """
        if end_ms < start_ms:
            raise ValueError("span cannot end before it starts")
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._seq,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self.trace_id,
            start_ms=start_ms,
            end_ms=end_ms,
            attributes=dict(attributes),
        )
        self._finish(span)
        return span

    def set_attribute(self, key: str, value: object) -> None:
        """Attach ``key=value`` to the innermost open span."""
        if self._stack:
            self._stack[-1].attributes[key] = value

    def annotate(self, span: Span, **attributes: object) -> None:
        """Attach attributes to a specific span (open or closed).

        Call sites use this instead of mutating the span directly so
        the same code is inert under :data:`NULL_TRACER` (whose spans
        are a shared singleton that must never accumulate state).
        """
        span.attributes.update(attributes)

    def _finish(self, span: Span) -> None:
        if len(self.finished) == self.capacity:
            self.dropped += 1
        self.finished.append(span)

    # -- perf attribution -----------------------------------------------

    def observe_perf(self, meter: PerfMeter) -> None:
        """Mirror every cost-model charge of ``meter`` into spans."""
        meter.set_observers(
            on_record=self._on_perf_record,
            on_component=self._on_perf_component,
            on_reset=self._on_perf_reset,
        )

    def _on_perf_record(self, op: PerfOp, n: int) -> None:
        if self._stack:
            self._stack[-1].charge(op, n)
        else:
            self.orphan_ops[op.value] = self.orphan_ops.get(op.value, 0) + n

    def _on_perf_component(self, name: str) -> None:
        if name not in self.components:
            self.components.append(name)

    def _on_perf_reset(self) -> None:
        # The meter forgot everything; drop our attributions with it so
        # span-derived totals keep matching the meter bit-for-bit.
        for span in self.finished:
            span.ops.clear()
        for span in self._stack:
            span.ops.clear()
        self.orphan_ops.clear()
        self.components.clear()

    # -- export ----------------------------------------------------------

    def export(self) -> List[Dict[str, object]]:
        """Finished spans, in finish order, as JSON-ready dicts.

        The session root span (if any is still open when callers export
        mid-run) is excluded — export after closing every span.
        """
        return [span.to_dict() for span in self.finished]

    def jsonl_lines(self) -> Iterator[str]:
        for span in self.finished:
            yield json.dumps(span.to_dict(), sort_keys=True)

    def write_jsonl(self, fp: IO[str]) -> int:
        """Append one line per finished span; returns the line count."""
        n = 0
        for line in self.jsonl_lines():
            fp.write(line + "\n")
            n += 1
        return n


# ---------------------------------------------------------------------------
# Plan profiling
# ---------------------------------------------------------------------------

class PlanProfiler:
    """Per-step profile of one :class:`InferencePlan` forward.

    The plan calls :meth:`start_forward` once per ``forward`` and
    :meth:`record_step` per executed step with the step's estimated
    multiply-accumulate count.  :meth:`attribute` then splits a total
    cost-model charge (the flat ``inference_cpu_ms``) across the steps
    proportionally to their MACs, giving the enclosing span a per-op
    cost breakdown without the cost model itself changing.
    """

    def __init__(self) -> None:
        self.steps: List[Tuple[str, int]] = []
        self.forwards = 0

    def start_forward(self, batch: int) -> None:
        self.forwards += 1
        self.steps = []

    def record_step(self, label: str, macs: int) -> None:
        self.steps.append((label, int(macs)))

    @property
    def total_macs(self) -> int:
        return sum(m for _, m in self.steps)

    def attribute(self, total_cpu_ms: float) -> List[Dict[str, object]]:
        """MAC-weighted shares of ``total_cpu_ms`` per executed step.

        Steps with zero MACs (reshape/concat/copy plumbing) carry no
        weight of their own; they fold into one trailing ``overhead``
        entry that also absorbs the floating-point residual of the
        weighted shares — so the returned costs sum to ``total_cpu_ms``
        **exactly** (``math.fsum`` of the shares plus the residual is
        the total by construction), and no executed step silently
        vanishes from the attribution.
        """
        total = self.total_macs
        out: List[Dict[str, object]] = []
        zero_mac_steps = 0
        for label, macs in self.steps:
            if macs == 0:
                zero_mac_steps += 1
                continue
            out.append({"step": label, "macs": macs,
                        "cpu_ms": total_cpu_ms * (macs / total)})
        residual = total_cpu_ms - math.fsum(
            float(entry["cpu_ms"]) for entry in out)  # type: ignore[arg-type]
        if zero_mac_steps or residual != 0.0:
            out.append({"step": OVERHEAD_STEP, "macs": 0,
                        "cpu_ms": residual})
        return out


# ---------------------------------------------------------------------------
# Span-derived reporting
# ---------------------------------------------------------------------------

def ops_from_spans(spans: Iterable[Dict[str, object]]) -> Dict[str, int]:
    """Total cost-model charges across a span dump (each charge counted
    exactly once, because ops never roll up into parents)."""
    totals: Dict[str, int] = {}
    for span in spans:
        for op, n in span.get("ops", {}).items():  # type: ignore[union-attr]
            totals[op] = totals.get(op, 0) + int(n)
    return totals


def stage_cpu_ms(spans: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Per-stage attributed cost-model CPU, keyed by span name.

    On a **truncated** dump (ring-buffer evictions mid-session) this is
    a partial total: evicted spans take their attributed ops with them,
    so each stage's CPU covers only the surviving spans — it never
    over-counts, and the tracer's ``dropped`` counter says how many
    spans are missing.  ``tests/core`` pins this behavior.
    """
    index = SpanIndex.build(spans)
    out: Dict[str, float] = {}
    for span, cpu in zip(index.spans, index.cpu_ms):
        name = str(span["name"])
        out[name] = out.get(name, 0.0) + cpu
    return out


def session_root(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The (unique) parentless ``session`` span of a session dump."""
    roots = [s for s in spans
             if s["name"] == "session" and s["parent_id"] is None]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one session root, got {len(roots)}")
    return roots[0]


@dataclass(frozen=True)
class SpanIndex:
    """Immutable structural index of one session's exported span dump.

    Per-position tuples follow dump order (finish order): span id,
    cost-model CPU charged to the span itself (never rolled up), and
    span-name path from the root, with ``orphan`` set where the parent
    was evicted before export (the span is then its own root).
    ``children`` maps a span id to its children's positions in dump
    order.  Sketches, profile folds, stage totals and the dashboard
    waterfall all derive from this one walk.  Raises ``ValueError`` on
    malformed op charges or a parent chain that loops.
    """

    spans: Tuple[Mapping[str, object], ...]
    ids: Tuple[int, ...]
    cpu_ms: Tuple[float, ...]
    paths: Tuple[Tuple[str, ...], ...]
    orphan: Tuple[bool, ...]
    children: Mapping[int, Tuple[int, ...]]

    @classmethod
    def build(cls, spans: Iterable[Mapping[str, object]]) -> "SpanIndex":
        records = tuple(spans)
        costs = op_cpu_ms()
        try:
            cpu = tuple(ops_cpu_ms(span.get("ops", {}), costs)  # type: ignore[arg-type]
                        for span in records)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed span op charges ({exc!r})")
        ids = tuple(int(span["span_id"]) for span in records)  # type: ignore[arg-type]
        by_id = dict(zip(ids, records))
        children: Dict[int, List[int]] = {}
        for pos, span in enumerate(records):
            if span["parent_id"] is not None:
                children.setdefault(span["parent_id"], []).append(pos)  # type: ignore[arg-type]
        paths: Dict[object, Tuple[str, ...]] = {None: ()}
        orphans: Dict[object, bool] = {}
        for span_id in ids:
            # Climb to a resolved ancestor or a root, then name downwards.
            chain: List[object] = []
            link: object = span_id
            while link not in paths:
                if link in chain:
                    raise ValueError(f"span {link} is its own ancestor")
                chain.append(link)
                up = by_id[link]["parent_id"]  # type: ignore[index]
                # A parent evicted by the ring buffer roots the span here.
                orphans[link] = up is not None and up not in by_id
                link = None if orphans[link] else up
            for link in reversed(chain):
                up = None if orphans[link] else by_id[link]["parent_id"]  # type: ignore[index]
                paths[link] = paths[up] + (str(by_id[link]["name"]),)  # type: ignore[index]
        return cls(spans=records, ids=ids, cpu_ms=cpu,
                   paths=tuple(paths[i] for i in ids),
                   orphan=tuple(orphans[i] for i in ids),
                   children={k: tuple(v) for k, v in children.items()})

    def depth(self, pos: int) -> int:
        return len(self.paths[pos]) - 1

    def subtree_cpu_ms(self, pos: int) -> float:
        """CPU of the span at ``pos`` plus all its descendants."""
        total = self.cpu_ms[pos]
        stack = [self.ids[pos]]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                total += self.cpu_ms[child]
                stack.append(self.ids[child])
        return total


def report_from_spans(
    spans: Sequence[Dict[str, object]],
    duration_ms: Optional[float] = None,
) -> PerfReport:
    """Rebuild a :class:`PerfReport` purely from an exported span dump.

    Replays the span-attributed op totals and the root span's component
    residency through a fresh :class:`PerfMeter`, so the arithmetic is
    the meter's own — when the attribution is complete (no dropped
    spans, no orphan charges) the result is bit-identical to the report
    the device produced during the run.  ``duration_ms`` defaults to
    the session root span's duration.

    On a **truncated** dump the rebuild is a defined partial report,
    not an error: evicted spans' ops are simply absent, so every cost
    figure is ``<=`` the device meter's (never above).  The session
    root span always survives a mid-session truncation — it closes
    last, and the ring evicts oldest-first — so the duration (and the
    baseline share of the report) stays exact; only op-derived overhead
    undercounts.  A dump truncated so hard the root itself was evicted
    raises ``ValueError`` from :func:`session_root`.  ``tests/core``
    pins this contract.
    """
    root = session_root(spans)
    if duration_ms is None:
        if root["end_ms"] is None:
            raise ValueError("session root span was never closed")
        duration_ms = float(root["end_ms"]) - float(root["start_ms"])  # type: ignore[arg-type]
    meter = PerfMeter()
    for name in root.get("attributes", {}).get("components", ()):  # type: ignore[union-attr]
        meter.enable_component(str(name))
    for op, n in ops_from_spans(spans).items():
        meter.record(PerfOp(op), n)
    return meter.report(duration_ms)
