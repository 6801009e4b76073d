"""Run-directory artifact loader for the ops dashboard.

:func:`load_run` reads a run directory through :mod:`repro.rundir`
(DESIGN.md §5i tabulates the layout) and folds telemetry, span dumps,
metrics, daemon records, the SLO report and the stack profiles into
one frozen :class:`RunModel`.  Every fold is order-canonical — part
files are read in sorted-name order and the sketch and profile algebras
are exactly associative — so the model (and therefore every route
response built from it) is byte-identical no matter how the directory
listing enumerated the shard parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.observability import SpanIndex
from repro.core.telemetry import (
    FleetTelemetry,
    SessionTelemetry,
    SloEngine,
    counters_from_metrics,
    default_slos,
    reaction_budget_ms,
    sketches_from_index,
)
from repro.profiling import Profile
from repro.profiling.fold import profile_from_sessions
from repro.rundir import (
    BASELINE_PROFILE,
    DAEMON,
    DRAIN,
    SLO,
    RunDirectoryError,
    RunListing,
)

#: Schema version stamped on every route payload.
OPS_VERSION = 1


@dataclass(frozen=True)
class SpanView:
    """One span of the trace waterfall (immutable projection).

    ``depth`` is the nesting level under the session root and
    ``cpu_ms`` the cost-model CPU attributed to this span alone (not
    its subtree) — both precomputed so the route layer stays a pure
    re-projection.
    """

    session: int
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    name: str
    start_ms: float
    end_ms: float
    depth: int
    cpu_ms: float
    attributes: Mapping[str, object]


@dataclass(frozen=True)
class SessionTrace:
    """One session's spans, ordered for waterfall rendering."""

    session: int
    trace_id: str
    start_ms: float
    end_ms: float
    spans: Tuple[SpanView, ...]


@dataclass(frozen=True)
class RunModel:
    """Everything the route layer needs, loaded once, immutable.

    ``fleet`` is a :class:`FleetTelemetry`; it is mutable by type but
    treated as frozen here — routes only read it.
    """

    ct_ms: float
    reaction_budget_ms: float
    fleet: FleetTelemetry
    sessions: Tuple[int, ...]
    traces: Mapping[int, SessionTrace]
    slo: Mapping[str, object]
    daemon: Optional[Mapping[str, object]]
    drain: Optional[Mapping[str, object]]
    profile: Profile
    baseline_profile: Optional[Profile]

    def span_ids(self, session: int) -> frozenset:
        trace = self.traces.get(session)
        if trace is None:
            return frozenset()
        return frozenset(span.span_id for span in trace.spans)


def _build_trace(session: int, index: SpanIndex) -> SessionTrace:
    views = []
    root_trace, lo, hi = "", 0.0, 0.0
    for pos, span in enumerate(index.spans):
        view = SpanView(
            session=session,
            span_id=index.ids[pos],
            parent_id=(None if span["parent_id"] is None
                       else int(span["parent_id"])),  # type: ignore[arg-type]
            trace_id=str(span["trace_id"]),
            name=str(span["name"]),
            start_ms=float(span["start_ms"]),  # type: ignore[arg-type]
            end_ms=float(span["end_ms"]),  # type: ignore[arg-type]
            depth=index.depth(pos),
            cpu_ms=index.cpu_ms[pos],
            attributes=dict(span["attributes"]),  # type: ignore[arg-type]
        )
        views.append(view)
        if view.parent_id is None and view.name == "session":
            root_trace, lo, hi = view.trace_id, view.start_ms, view.end_ms
    views.sort(key=lambda v: (v.start_ms, v.span_id))
    return SessionTrace(session=session, trace_id=root_trace,
                        start_ms=lo, end_ms=hi, spans=tuple(views))


def load_run(
    run_dir: str,
    ct_ms: float = 200.0,
    names: Optional[Sequence[str]] = None,
) -> RunModel:
    """Load a run directory into a :class:`RunModel`.

    ``names`` overrides the directory listing (the goldens shuffle it to
    prove the model is listing-order invariant); the loader sorts it
    before reading either way.  Raises :class:`RunDirectoryError` when
    the directory is unreadable, holds no recognizable artifacts, or
    any artifact in it is malformed.
    """
    run = RunListing.scan(run_dir, names)
    if not run.recognized():
        raise RunDirectoryError(
            f"no run artifacts (telemetry/trace/daemon) in {run_dir}")

    fleet = run.fold(run.artifacts("telemetry"), FleetTelemetry.from_snapshot,
                     FleetTelemetry())
    spans_by_session = run.spans()
    metrics_by_session = run.metrics()
    sessions = tuple(sorted(spans_by_session))
    try:
        indexes = {session: SpanIndex.build(spans_by_session[session])
                   for session in sessions}
    except ValueError as exc:
        raise RunDirectoryError(f"{run_dir}: malformed span dump ({exc})")
    traces = {session: _build_trace(session, indexes[session])
              for session in sessions}

    # A directory with no profile artifacts derives its profile from
    # the spans so bare trace dumps still serve /api/flame.
    if run.artifacts("profile"):
        run_profile = run.fold(run.artifacts("profile"), Profile.from_dict,
                               Profile())
    else:
        run_profile = profile_from_sessions(indexes, metrics_by_session)

    # Per-session telemetry feeds the derived SLO report and, for a
    # telemetry-free directory (daemon-only, or a bare trace), the
    # rebuilt fleet snapshot the overview route projects.
    slo = run.read(SLO)
    if slo is None or not run.artifacts("telemetry"):
        series = [
            SessionTelemetry(
                session=session,
                sketches=sketches_from_index(indexes[session],
                                             session=session),
                counters=counters_from_metrics(
                    metrics_by_session.get(session, {})))
            for session in sessions
        ]
        if slo is None:
            engine = SloEngine(default_slos(ct_ms=ct_ms))
            slo = engine.evaluate(series).to_dict()
        if not run.artifacts("telemetry"):
            for telemetry in series:
                fleet.observe_session(telemetry)

    return RunModel(
        ct_ms=float(ct_ms),
        reaction_budget_ms=reaction_budget_ms(ct_ms),
        fleet=fleet,
        sessions=sessions,
        traces=traces,
        slo=slo,
        daemon=run.read(DAEMON),
        drain=run.read(DRAIN),
        profile=run_profile,
        baseline_profile=run.read(BASELINE_PROFILE, Profile.from_dict),
    )


__all__ = [
    "OPS_VERSION",
    "RunDirectoryError",
    "SpanView",
    "SessionTrace",
    "RunModel",
    "load_run",
]
