"""DARPA's runtime core (paper Sections IV and V).

``DarpaService`` is the end-to-end pipeline:

1. register for all 23 accessibility event types;
2. debounce UI updates with the cut-off time ``ct``
   (:mod:`repro.core.debounce`) — only screens that stay quiet for
   ``ct`` milliseconds are analyzed;
3. take a screenshot, run the CV detector, rinse the screenshot
   (:mod:`repro.core.security`);
4. calibrate screen→window coordinates with an invisible anchor view
   and decorate the detected options — or auto-click the UPO
   (:mod:`repro.core.decorator`).
"""

from repro.core.config import DarpaConfig, DecorationStyle
from repro.core.debounce import CutoffDebouncer
from repro.core.decorator import ViewDecorator
from repro.core.observability import (
    NULL_TRACER,
    NullTracer,
    PlanProfiler,
    Span,
    Tracer,
    ops_from_spans,
    report_from_spans,
    session_root,
    stage_cpu_ms,
)
from repro.core.resilience import BreakerState, CircuitBreaker, RetryPolicy
from repro.core.security import (
    DARPA_MANIFEST,
    ConsentError,
    Manifest,
    ScreenshotPolicy,
)
from repro.core.pipeline import DarpaService, DarpaStats
from repro.core.screencache import ScreenFingerprintCache

# Imported last: the daemon composes the pipeline above and lazily
# imports the bench runners (which themselves import this package).
from repro.core.daemon import (
    CoalescingCoordinator,
    DaemonConfig,
    DaemonReport,
    DarpaDaemon,
    JournalError,
    LaneConfig,
    RejectionRecord,
    TokenBucket,
)

__all__ = [
    "DarpaConfig",
    "DecorationStyle",
    "CutoffDebouncer",
    "ViewDecorator",
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "DARPA_MANIFEST",
    "ConsentError",
    "Manifest",
    "ScreenshotPolicy",
    "DarpaService",
    "DarpaStats",
    "ScreenFingerprintCache",
    "NULL_TRACER",
    "NullTracer",
    "PlanProfiler",
    "Span",
    "Tracer",
    "ops_from_spans",
    "report_from_spans",
    "session_root",
    "stage_cpu_ms",
    "CoalescingCoordinator",
    "DaemonConfig",
    "DaemonReport",
    "DarpaDaemon",
    "JournalError",
    "LaneConfig",
    "RejectionRecord",
    "TokenBucket",
]
