"""Live ops dashboard over fleet run artifacts.

``repro.ops`` is the operator-facing read path of the serving stack: it
ingests the run directory a fleet run (or the serving daemon) already
leaves behind (read through :mod:`repro.rundir`) into frozen
view-models (:mod:`repro.ops.artifacts`), maps them through
pure route functions to canonical byte-exact JSON
(:mod:`repro.ops.routes`), and serves the result over a zero-dependency
``http.server`` host with an SSE trace tail (:mod:`repro.ops.server`,
:mod:`repro.ops.tail`).

Because every input artifact is deterministic and every route handler
is a pure function with canonical serialization, the whole dashboard is
pinned by committed golden responses (``tests/ops/``) instead of
screenshots.
"""

from repro.ops.artifacts import (
    RunModel,
    SessionTrace,
    SpanView,
    load_run,
)
from repro.ops.routes import (
    RouteError,
    canonical_bytes,
    dump_routes,
    golden_name,
    resolve,
    route_paths,
)
from repro.ops.tail import JsonlTail, TailEvent, format_sse
from repro.ops.server import OpsServer, respond, stream_events

__all__ = [
    "RunModel",
    "SessionTrace",
    "SpanView",
    "load_run",
    "RouteError",
    "canonical_bytes",
    "dump_routes",
    "golden_name",
    "resolve",
    "route_paths",
    "JsonlTail",
    "TailEvent",
    "format_sse",
    "OpsServer",
    "respond",
    "stream_events",
]
