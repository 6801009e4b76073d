"""The run-directory format: artifact names, shard parts, checked reads.

A traced fleet run or a serving daemon leaves one directory of
deterministic artifacts behind (DESIGN.md §5i tabulates them), and this
module is the only code that knows its layout.  Shard parts are named
``shard-NNNNNN.<merged name>`` after the shard's first global session
index; shards are contiguous, so sorted part names ARE global session
order.  Every reader lists through :func:`injectable_listing` and parses
through :func:`read_json` / :func:`read_spans` / :func:`read_metrics`,
so a missing, unreadable or malformed artifact surfaces as one
:class:`RunDirectoryError` whichever consumer trips over it.  Standard
library only: it sits below every subsystem that reads or writes a run.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple)

#: Part kind -> merged artifact name.
MERGED: Mapping[str, str] = {
    "trace": "trace.jsonl", "metrics": "metrics.jsonl",
    "telemetry": "telemetry.json", "profile": "profile.json"}
SHARD_PREFIX = "shard-"
TELEMETRY_PROM = "telemetry.prom"
JOURNAL = "journal.jsonl"
DAEMON = "daemon.json"
DRAIN = "drain.json"
SLO = "slo.json"
BASELINE_PROFILE = "baseline.profile.json"
SINGLES = frozenset({DAEMON, DRAIN, SLO, BASELINE_PROFILE})
#: What a fresh daemon run clears first, with every shard part.
STALE = frozenset(MERGED.values()) | {TELEMETRY_PROM, JOURNAL, DAEMON, DRAIN}

#: JSON types of the span fields every span walk reads.
_SPAN_FIELDS = {"name": str, "span_id": int, "parent_id": (int, type(None)),
                "trace_id": str, "start_ms": (int, float),
                "end_ms": (int, float), "attributes": dict, "ops": dict}
_MISSING = object()

Decoder = Optional[Callable[[dict], object]]


class RunDirectoryError(ValueError):
    """A run directory or one of its artifacts is missing, unreadable
    or malformed."""


def part_name(first_index: int, kind: str) -> str:
    return f"{SHARD_PREFIX}{first_index:06d}.{MERGED[kind]}"


def injectable_listing(run_dir: str,
                       names: Optional[Sequence[str]] = None) -> List[str]:
    """The sanctioned directory enumeration: sorted, injectable.

    Returns ``sorted(names)`` when a listing is injected (goldens
    shuffle it to prove listing-order invariance) and a sorted
    ``os.listdir`` otherwise — callers never see on-disk order, which
    is why darpaflow treats this helper as a listing sanitizer and
    DL008 exempts its body.
    """
    try:
        listing = list(names) if names is not None else os.listdir(run_dir)
    except OSError as exc:
        raise RunDirectoryError(f"cannot list run directory: {exc}")
    return sorted(listing)


@dataclass(frozen=True)
class RunListing:
    """One sorted enumeration of a run directory, classified on demand."""

    path: str
    names: Tuple[str, ...]

    @classmethod
    def scan(cls, run_dir: str,
             names: Optional[Sequence[str]] = None) -> "RunListing":
        return cls(run_dir, tuple(injectable_listing(run_dir, names)))

    def join(self, name: str) -> str:
        return os.path.join(self.path, name)

    def parts(self, kind: str) -> List[str]:
        return [name for name in self.names if name.startswith(SHARD_PREFIX)
                and name.endswith("." + MERGED[kind])]

    def artifacts(self, kind: str) -> List[str]:
        """The merged artifact and the shard parts of ``kind``, sorted.
        A finished run has one or the other; reading whatever is
        present keeps mid-run directories loadable."""
        return sorted(self.parts(kind) + [name for name in self.names
                                          if name == MERGED[kind]])

    def stale(self) -> List[str]:
        return [name for name in self.names
                if name in STALE or name.startswith(SHARD_PREFIX)]

    def recognized(self) -> bool:
        return (any(name in SINGLES for name in self.names)
                or any(self.artifacts(kind) for kind in MERGED))

    def read(self, name: str, decode: Decoder = None):
        """The single artifact ``name``, or None when it is absent."""
        if name in self.names:
            return read_json(self.join(name), decode)
        return None

    def fold(self, names: Iterable[str], decode: Decoder, into):
        """Merge each named JSON artifact, decoded, into ``into``."""
        for name in names:
            into.merge(read_json(self.join(name), decode))
        return into

    def spans(self) -> Dict[int, List[Dict[str, object]]]:
        return read_spans([self.join(n) for n in self.artifacts("trace")])

    def metrics(self) -> Dict[int, Mapping[str, object]]:
        return read_metrics([self.join(name)
                             for name in self.artifacts("metrics")])


def read_json(path: str, decode: Decoder = None):
    """One JSON-object artifact, optionally parsed further by ``decode``
    (e.g. ``Profile.from_dict``); whatever fails names the file."""
    try:
        with open(path, encoding="utf-8") as fp:
            payload = json.load(fp)
    except json.JSONDecodeError as exc:
        raise RunDirectoryError(f"{path}: malformed JSON ({exc})")
    except (OSError, UnicodeDecodeError) as exc:
        raise RunDirectoryError(f"cannot read {path}: {exc}")
    if not isinstance(payload, dict):
        raise RunDirectoryError(f"{path}: expected a JSON object")
    try:
        return payload if decode is None else decode(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RunDirectoryError(f"{path}: malformed artifact ({exc!r})")


def _jsonl(path: str, data: Optional[bytes] = None
           ) -> List[Tuple[int, Dict[str, object]]]:
    """``(line number, object)`` per non-blank line of the file (or of
    ``data``, its already-read bytes)."""
    records = []
    try:
        with (open(path, encoding="utf-8") if data is None
              else io.StringIO(data.decode("utf-8"))) as lines:
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RunDirectoryError(
                        f"{path}:{lineno}: malformed JSONL ({exc})")
                if not isinstance(record, dict):
                    raise RunDirectoryError(
                        f"{path}:{lineno}: expected an object per line")
                records.append((lineno, record))
    except (OSError, UnicodeDecodeError) as exc:
        raise RunDirectoryError(f"cannot read {path}: {exc}")
    return records


def recover_jsonl(path: str) -> List[Dict[str, object]]:
    """The records of an append-only JSONL log a kill may have cut.

    A final line without its newline is an append that never finished:
    it is dropped, and cut off the file so the next append starts on a
    fresh line.  Any other malformed line raises.
    """
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        raise RunDirectoryError(f"cannot read {path}: {exc}")
    complete = data[:data.rfind(b"\n") + 1]
    records = [record for _, record in _jsonl(path, complete)]
    if len(complete) < len(data):
        os.truncate(path, len(complete))
    return records


def _is_span(record: Mapping[str, object]) -> bool:
    for key, kind in _SPAN_FIELDS.items():
        if not isinstance(record.get(key, _MISSING), kind):
            return False
    return True


def _is_metrics(record: Mapping[str, object]) -> bool:
    metrics = record.get("metrics", {})
    counters = (metrics.get("counters", {}) if isinstance(metrics, dict)
                else None)
    return isinstance(counters, dict) and all(
        isinstance(value, int) for value in counters.values())


def _by_session(paths: Iterable[str], what: str,
                check: Callable[[Mapping[str, object]], bool]
                ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """``(global session index, record)`` per line, ``session`` popped."""
    for path in paths:
        for lineno, record in _jsonl(path):
            session = record.pop("session", 0)
            if not check(record) or not isinstance(session, int):
                raise RunDirectoryError(f"{path}:{lineno}: not a {what} record")
            yield session, record


def read_spans(paths: Iterable[str]) -> Dict[int, List[Dict[str, object]]]:
    """Span records grouped by global session index, in line order
    (span finish order, which the telemetry derivation depends on)."""
    by_session: Dict[int, List[Dict[str, object]]] = {}
    for session, span in _by_session(paths, "span", _is_span):
        by_session.setdefault(session, []).append(span)
    return by_session


def read_metrics(paths: Iterable[str]) -> Dict[int, Mapping[str, object]]:
    """Registry snapshot per global session index (a later line wins)."""
    return {session: record.get("metrics", {})  # type: ignore[misc]
            for session, record in _by_session(paths, "metrics", _is_metrics)}


def write_json(path: str, payload: Mapping[str, object]) -> None:
    """A JSON artifact in canonical text: sorted keys, indented, LF-ended."""
    with open(path, "w") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2)
        fp.write("\n")
