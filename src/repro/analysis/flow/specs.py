"""darpaflow specs: what taints, what cleans, where tainting matters.

The taint analysis is parameterized by three frozen tables:

- **Sources** introduce taint.  Each belongs to a *category* with a
  stable ``DFxxx`` id (wall clock, unseeded RNG, filesystem listing
  order, dict/set iteration order, environment reads, object identity,
  scheduling results).  Categories split into two classes:

  - *value* taints (``wall-clock``, ``unseeded-rng``, ``env``,
    ``identity``, ``scheduling``) — the bytes themselves differ run to
    run; no reordering operation can clean them, only an explicit
    ``# darpaflow: sanitized=REASON`` marker may;
  - *order* taints (``listing``, ``dict-set-order``) — the values are
    stable but their enumeration order is not; ``sorted()``,
    ``math.fsum()`` and friends genuinely erase them.

- **Sanitizers** erase taint of the categories they are declared for.
  ``sorted`` erases order taints but must never clear a wall-clock
  value (``sorted([time.time()])`` is still nondeterministic), which
  is why every sanitizer entry carries its category set.

- **Sinks** are the byte-exact artifact writers: a tainted value
  passed as an argument to one is a finding.  Entries match either a
  fully-resolved dotted name (``repro.ops.routes.canonical_bytes``) or
  a bare trailing attribute (``canonical_bytes``) so method sinks on
  untyped receivers are still caught.

The tables are constants: :class:`FlowSpecs` is the one policy the
engine runs with (tests pass in variants), and the reviewed
``# darpaflow: sanitized=REASON`` marker is the only way to accept a
flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.analysis.rules import (
    GLOBAL_RANDOM_FNS,
    NUMPY_GLOBAL_FNS,
    SEEDED_CONSTRUCTORS,
    WALL_CLOCK_CALLS,
)

#: Inline marker erasing every taint produced on its line.  Must carry
#: a reason: ``# darpaflow: sanitized=derived-before-fork``.
SANITIZED_MARKER_RE = r"#\s*darpaflow:\s*sanitized=(\S+)"

#: category name -> stable finding id (mirrors darpalint's DLxxx ids).
CATEGORY_IDS: Mapping[str, str] = {
    "wall-clock": "DF001",
    "unseeded-rng": "DF002",
    "listing": "DF003",
    "dict-set-order": "DF004",
    "env": "DF005",
    "identity": "DF006",
    "scheduling": "DF007",
}

#: Categories whose taint is an enumeration *order*, not a value —
#: the only ones an order-erasing sanitizer may clean.
ORDER_CATEGORIES = frozenset({"listing", "dict-set-order"})

#: Dotted source names per category (exact match after alias
#: resolution).  Unseeded-RNG constructor checks are special-cased in
#: the taint engine: ``random.Random(seed)`` is clean, ``random.Random()``
#: is a source.
DEFAULT_SOURCES: Mapping[str, Tuple[str, ...]] = {
    "wall-clock": tuple(sorted(WALL_CLOCK_CALLS)),
    "unseeded-rng": tuple(sorted(
        {f"random.{fn}" for fn in GLOBAL_RANDOM_FNS}
        | {f"numpy.random.{fn}" for fn in NUMPY_GLOBAL_FNS})),
    "listing": ("glob.glob", "glob.iglob", "os.listdir", "os.scandir"),
    "dict-set-order": (),  # attribute/literal driven; see taint engine
    "env": ("os.environ.get", "os.getenv", "os.environb.get"),
    "identity": ("id",),
    "scheduling": ("concurrent.futures.as_completed", "os.getpid",
                   "os.urandom", "threading.current_thread",
                   "threading.get_ident", "uuid.uuid1", "uuid.uuid4"),
}

#: Trailing method names treated as listing sources whatever the
#: (usually unresolvable) receiver: ``Path(...).iterdir()`` etc.
LISTING_METHOD_ATTRS = frozenset({"iterdir", "glob", "rglob"})

#: Trailing method/constructor names producing hash-ordered iterables.
DICT_SET_ORDER_ATTRS = frozenset({"keys", "values", "items"})

#: Dotted sanitizer name -> categories it erases (None = every one).
DEFAULT_SANITIZERS: Mapping[str, Optional[frozenset]] = {
    "sorted": ORDER_CATEGORIES,
    "math.fsum": ORDER_CATEGORIES,
    "min": ORDER_CATEGORIES,
    "max": ORDER_CATEGORIES,
    "len": ORDER_CATEGORIES,
    "sum": ORDER_CATEGORIES,
    "any": ORDER_CATEGORIES,
    "all": ORDER_CATEGORIES,
    # The one sanctioned directory enumeration: sorted inside,
    # injectable for tests — its result carries no listing order.
    "repro.rundir.injectable_listing": None,
    "injectable_listing": None,
}

#: Artifact-writer sinks: dotted-or-suffix name -> human description.
DEFAULT_SINKS: Mapping[str, str] = {
    "repro.ops.routes.canonical_bytes": "canonical route bytes",
    "canonical_bytes": "canonical route bytes",
    "repro.bench.parallel.write_session_part": "journal/checkpoint shard part",
    "write_session_part": "journal/checkpoint shard part",
    "repro.bench.provenance.build_manifest": "BENCH payload manifest",
    "build_manifest": "BENCH payload manifest",
    "repro.core.telemetry.registry_prometheus_lines": "Prometheus exposition",
    "registry_prometheus_lines": "Prometheus exposition",
    "prometheus_lines": "Prometheus exposition",
    "to_prometheus": "Prometheus exposition",
    "to_json": "profile.json / telemetry snapshot emitter",
}


@dataclass(frozen=True)
class FlowSpecs:
    """The three tables the taint engine runs with (immutable)."""

    sources: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SOURCES))
    sanitizers: Mapping[str, Optional[frozenset]] = field(
        default_factory=lambda: dict(DEFAULT_SANITIZERS))
    sinks: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_SINKS))

    def source_category(self, dotted: str) -> Optional[str]:
        """Category of a resolved callee, or None when not a source."""
        for category in sorted(self.sources):
            if dotted in self.sources[category]:
                return category
        return None

    def sanitizer_categories(self, dotted: str) -> Optional[object]:
        """``False`` when not a sanitizer; else the erased-category set
        (``None`` meaning *all*)."""
        if dotted in self.sanitizers:
            return self.sanitizers[dotted]
        tail = dotted.rpartition(".")[2]
        if tail != dotted and tail in self.sanitizers:
            return self.sanitizers[tail]
        return False

    def sink_description(self, dotted: str) -> Optional[str]:
        """Description of a sink callee, or None when not a sink."""
        if dotted in self.sinks:
            return self.sinks[dotted]
        tail = dotted.rpartition(".")[2]
        if tail != dotted and tail in self.sinks:
            return self.sinks[tail]
        return None


__all__ = [
    "CATEGORY_IDS",
    "DEFAULT_SANITIZERS",
    "DEFAULT_SINKS",
    "DEFAULT_SOURCES",
    "DICT_SET_ORDER_ATTRS",
    "FlowSpecs",
    "LISTING_METHOD_ATTRS",
    "ORDER_CATEGORIES",
    "SANITIZED_MARKER_RE",
    "SEEDED_CONSTRUCTORS",
]
