"""Load profiles from the places they live.

``repro profile`` (and ``--diff``) accepts a **run directory** (read
through :mod:`repro.rundir`, like the ops dashboard: its merged or
shard-part profiles, else its span dumps folded with each session's
dropped-span count), a **profile.json** file (or any JSON file with an
embedded :data:`~repro.profiling.profile.PROFILE_KEY` block, e.g. a
``BENCH_*.json`` baseline), or a **span JSONL** file (``repro trace``).
Every fold sorts its inputs, so the result is byte-identical however
the directory listing enumerated the shard parts.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping

from repro.core.observability import SpanIndex
from repro.profiling.fold import profile_from_sessions
from repro.profiling.profile import PROFILE_KEY, Profile
from repro.rundir import RunDirectoryError, RunListing, read_json, read_spans

#: The profiling name of the shared reader error: a source that is
#: missing, unreadable, or not a profile.
ProfileSourceError = RunDirectoryError


def _profile_from_payload(payload: Mapping[str, object]) -> Profile:
    if "frames" in payload:
        return Profile.from_dict(payload)
    if PROFILE_KEY in payload:
        return Profile.from_dict(payload[PROFILE_KEY])  # type: ignore[arg-type]
    raise ValueError(f"neither a profile document nor a payload with a "
                     f"{PROFILE_KEY!r} block")


def _fold(spans: Dict[int, List[Dict[str, object]]],
          metrics: Mapping[int, Mapping[str, object]]) -> Profile:
    try:
        indexes = {session: SpanIndex.build(spans[session])
                   for session in spans}
    except ValueError as exc:
        raise ProfileSourceError(f"malformed span dump ({exc})")
    return profile_from_sessions(indexes, metrics)


def load_profile(source: str) -> Profile:
    """Load a Profile from a run directory, JSON document, or span JSONL."""
    if os.path.isdir(source):
        run = RunListing.scan(source)
        if run.artifacts("profile"):
            return run.fold(run.artifacts("profile"), Profile.from_dict,
                            Profile())
        if not run.artifacts("trace"):
            raise ProfileSourceError(
                f"no profile or trace artifacts in {source}")
        return _fold(run.spans(), run.metrics())
    if source.endswith(".jsonl"):
        return _fold(read_spans([source]), {})
    return read_json(source, _profile_from_payload)  # type: ignore[return-value]


__all__ = ["ProfileSourceError", "load_profile"]
