"""darpaflow: interprocedural nondeterminism taint analysis.

Where darpalint (:mod:`repro.analysis`) catches *syntactic* uses of
nondeterminism, darpaflow follows the **values**: a ``time.time()``
result passed through three helpers before landing in
``canonical_bytes`` is invisible to a per-node rule but is exactly a
source→sink flow here, reported with every hop as ``path:line``.

Layout:

- :mod:`~repro.analysis.flow.specs` — the sources / sanitizers / sinks
  tables (constants; the ``# darpaflow: sanitized=REASON`` marker is
  the only way to accept a flow);
- :mod:`~repro.analysis.flow.graph` — module graph + function
  registry + callee resolution;
- :mod:`~repro.analysis.flow.taint` — the summary-based worklist
  engine and :class:`FlowFinding`;
- :mod:`~repro.analysis.flow.cli` — the ``repro flow`` command; its
  reports come from darpalint's :mod:`repro.analysis.reporters`.
"""

from repro.analysis.flow.graph import (
    FunctionInfo,
    ModuleInfo,
    ProgramGraph,
    build_graph,
    module_name_for,
)
from repro.analysis.flow.specs import (
    CATEGORY_IDS,
    FlowSpecs,
    ORDER_CATEGORIES,
)
from repro.analysis.flow.taint import (
    FLOW_PARSE_ERROR_RULE,
    FlowFinding,
    Hop,
    Taint,
    analyze_graph,
    analyze_paths,
)

__all__ = [
    "CATEGORY_IDS",
    "FLOW_PARSE_ERROR_RULE",
    "FlowFinding",
    "FlowSpecs",
    "FunctionInfo",
    "Hop",
    "ModuleInfo",
    "ORDER_CATEGORIES",
    "ProgramGraph",
    "Taint",
    "analyze_graph",
    "analyze_paths",
    "build_graph",
    "module_name_for",
]
