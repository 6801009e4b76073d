"""Outside-in span recorder for the traced benchmark run.

Nothing inside ``src/`` knows it is being traced: :func:`patched`
replaces each layer's entry point, at the name its caller looks up,
with a wrapper that records one :class:`Span` per call, and puts every
original back when the run ends.  Spans stay in memory;
:func:`layer_metrics` folds them into the per-layer numbers.

Threads.  ``CoalescingCoordinator.run_batch`` runs the sessions of one
daemon batch in lockstep threads, so span stacks are per thread.  A
span that opens on a thread with an empty stack while an *adopting*
span (``run_batch``) is open on another thread becomes that span's
child, and a session thread parked in ``_CoalescingProxy.detect_screen``
records a *wait* span: wait time is covered (it is not the session's
own work) but is booked to no layer, because the coordinator thread
records the work done meanwhile.  With this, no instant is booked to
two spans, so the layer shares of the traced wall time add up to at
most 100%.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.wallclock import monotonic_ms

Counts = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    """One recorded call.  ``parent`` is a span id or None."""

    span_id: int
    parent: Optional[int]
    layer: str
    name: str
    thread: int
    start_ms: float
    end_ms: float = 0.0
    wait: bool = False
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class Patch:
    """One wrapped name: ``attr`` (``"func"`` or ``"Class.method"``) as
    looked up in module ``owner``, booked to ``layer``."""

    layer: str
    owner: str
    attr: str
    counts: Optional[Counts] = None
    adopts_threads: bool = False
    wait: bool = False


def _cache_probe(args, kwargs, result) -> Dict[str, float]:
    return {"probes": 1, "hits": int(result is not None)}


def _forward_images(args, kwargs, result) -> Dict[str, float]:
    return {"images": int(args[1].shape[0])}


def _nms_boxes(args, kwargs, result) -> Dict[str, float]:
    boxes = args[0] if args else kwargs["boxes"]
    return {"boxes_in": len(boxes), "boxes_out": len(result)}


def _decorations(args, kwargs, result) -> Dict[str, float]:
    return {"decorations": len(result)}


#: Every wrapped layer entry point, patched where its caller finds it.
PATCHES: Tuple[Patch, ...] = (
    Patch("bench.experiments", "repro.bench.experiments", "run_darpa_session"),
    Patch("android.renderer", "repro.android.accessibility", "render_screen"),
    Patch("core.screencache", "repro.core.screencache",
          "ScreenFingerprintCache.fingerprint"),
    Patch("core.screencache", "repro.core.screencache",
          "ScreenFingerprintCache.get", counts=_cache_probe),
    Patch("vision.yolo", "repro.vision.yolo", "TinyYolo.detect_screens"),
    Patch("vision.nn", "repro.vision.nn.infer", "InferencePlan.forward",
          counts=_forward_images),
    Patch("vision.refine", "repro.vision.yolo", "refine_detection_box"),
    Patch("geometry.nms", "repro.vision.yolo", "non_max_suppression",
          counts=_nms_boxes),
    Patch("core.decorator", "repro.core.decorator", "ViewDecorator.decorate",
          counts=_decorations),
    Patch("core.decorator", "repro.core.decorator", "ViewDecorator.remove_all"),
    Patch("core.debounce", "repro.core.debounce", "CutoffDebouncer.feed"),
    Patch("baselines.frauddroid", "repro.baselines.frauddroid",
          "FraudDroidScreenDetector.detect_screen"),
    Patch("core.daemon", "repro.core.daemon", "DarpaDaemon.run"),
    Patch("core.daemon", "repro.core.daemon",
          "CoalescingCoordinator.run_batch", adopts_threads=True),
    Patch("core.daemon", "repro.core.daemon",
          "_CoalescingProxy.detect_screen", wait=True),
    Patch("bench.parallel", "repro.bench.parallel", "write_session_part"),
    Patch("bench.parallel", "repro.bench.parallel", "merge_trace_artifacts"),
    Patch("ops.artifacts", "repro.ops.artifacts", "load_run"),
    Patch("profiling.io", "repro.profiling.io", "load_profile"),
)

#: Layer names in report order (each patch's layer, first seen first).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in PATCHES))


class SpanRecorder:
    """Thread-aware in-memory span store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopters: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, layer: str, name: str, wait: bool = False,
              adopts_threads: bool = False) -> Span:
        stack = self._stack()
        thread = threading.get_ident()
        with self._lock:
            parent: Optional[Span] = stack[-1] if stack else None
            if parent is None and self._adopters:
                adopter = self._adopters[-1]
                if adopter.thread != thread:
                    parent = adopter
            span = Span(span_id=next(self._ids),
                        parent=parent.span_id if parent else None,
                        layer=layer, name=name, thread=thread,
                        start_ms=monotonic_ms(), wait=wait)
            self.spans.append(span)
            if adopts_threads:
                self._adopters.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, counts: Optional[Dict[str, float]] = None) -> None:
        span.end_ms = monotonic_ms()
        if counts:
            span.counts = counts
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self._adopters = [a for a in self._adopters if a is not span]


def _resolve(patch: Patch) -> Tuple[object, str]:
    """The object holding the patched attribute, and its name there."""
    holder: object = importlib.import_module(patch.owner)
    *path, name = patch.attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    if name not in vars(holder):
        raise AttributeError(f"{patch.owner}.{patch.attr} is not defined "
                             "where it is looked up")
    return holder, name


def _wrap(recorder: SpanRecorder, patch: Patch, original: Callable) -> Callable:
    def traced(*args, **kwargs):
        span = recorder.start(patch.layer, patch.attr, wait=patch.wait,
                              adopts_threads=patch.adopts_threads)
        counts = None
        try:
            result = original(*args, **kwargs)
            if patch.counts is not None:
                counts = patch.counts(args, kwargs, result)
            return result
        finally:
            recorder.end(span, counts)

    traced.__wrapped__ = original
    return traced


def snapshot(patches: Sequence[Patch] = PATCHES) -> Dict[str, object]:
    """The currently installed object behind every patched name."""
    out = {}
    for patch in patches:
        holder, name = _resolve(patch)
        out[f"{patch.owner}:{patch.attr}"] = vars(holder)[name]
    return out


@contextmanager
def patched(recorder: SpanRecorder,
            patches: Sequence[Patch] = PATCHES) -> Iterator[SpanRecorder]:
    """Install span wrappers on every patched name; restore on exit."""
    installed: List[Tuple[object, str, object]] = []
    try:
        for patch in patches:
            holder, name = _resolve(patch)
            original = vars(holder)[name]
            installed.append((holder, name, original))
            setattr(holder, name, _wrap(recorder, patch, original))
        yield recorder
    finally:
        for holder, name, original in reversed(installed):
            setattr(holder, name, original)


# ---------------------------------------------------------------------------
# Folding spans into layer metrics
# ---------------------------------------------------------------------------

def _covered_ms(lo: float, hi: float,
                intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover.

    Children may sit on other threads (adopted session threads) and may
    overlap each other, so coverage is an interval union, not a sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ms, span.end_ms))
    return {span.span_id: span.duration_ms - _covered_ms(
                span.start_ms, span.end_ms, children.get(span.span_id, ()))
            for span in spans}


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: Sequence[Span],
                  layers: Sequence[str] = LAYERS) -> Dict[str, float]:
    """``<layer>.calls/.self_ms/.ms_p50/.ms_p99`` plus summed counts
    (``<layer>.<count>``) for every layer; wait spans are excluded."""
    own = self_times(spans)
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        if not span.wait:
            by_layer.setdefault(span.layer, []).append(span)
    out: Dict[str, float] = {}
    for layer in layers:
        mine = by_layer.get(layer, [])
        durations = [s.duration_ms for s in mine]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_ms"] = sum(own[s.span_id] for s in mine)
        out[f"{layer}.ms_p50"] = _percentile(durations, 50)
        out[f"{layer}.ms_p99"] = _percentile(durations, 99)
        for span in mine:
            for key, value in span.counts.items():
                name = f"{layer}.{key}"
                out[name] = out.get(name, 0) + value
    return out


__all__ = [
    "LAYERS",
    "PATCHES",
    "Patch",
    "Span",
    "SpanRecorder",
    "layer_metrics",
    "patched",
    "self_times",
    "snapshot",
]
