"""Parallel fleet execution for the runtime benchmarks.

A fleet run (Tables VI-VIII, Figure 8) is embarrassingly parallel: each
session owns its device, clock, app and service, and every source of
randomness is keyed off the session's *global* index
(``monkey_seed = 1000 + index``), never off worker identity or
scheduling order.  That makes the parallel runner a drop-in for
:func:`repro.bench.experiments.run_darpa_over_fleet`: the merged result
list is deterministic and identical to the sequential one for any
worker or shard count, which the determinism tests assert.

Sessions are dealt into ``n_shards`` index shards; each worker process
replays its shard sequentially and ships back ``(index, result)``
pairs, which the parent reassembles in fleet order.  Workers are forked
where the platform allows it (the memoized corpus and model are then
inherited copy-on-write instead of re-pickled).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.bench.experiments import (
    DEFAULT_CONF_THRESHOLD,
    FleetSession,
    SessionResult,
    run_darpa_over_fleet,
    run_darpa_session,
)
from repro.rundir import (
    MERGED, TELEMETRY_PROM, RunListing, part_name, write_json)


def _write_shard_artifacts(trace_dir: str,
                           results: List[Tuple[int, SessionResult]]) -> None:
    """Write one shard's trace/metrics/telemetry/profile part files,
    named by the shard's first global index (shards are contiguous, so
    lexicographic part order IS global session order)."""
    from repro.core.telemetry import FleetTelemetry, SessionTelemetry
    from repro.profiling import profile_from_results

    def part(kind: str) -> str:
        return os.path.join(trace_dir, part_name(results[0][0], kind))

    # Sorted-key JSONL; every line carries its *global* session index,
    # so merged files are self-describing and line order is auditable.
    with open(part("trace"), "w") as tfp, open(part("metrics"), "w") as mfp:
        for index, result in results:
            for span in result.spans or ():
                tfp.write(json.dumps({"session": index, **span},
                                     sort_keys=True) + "\n")
            mfp.write(json.dumps({"session": index, "metrics": result.metrics},
                                 sort_keys=True) + "\n")
    # Shard-level telemetry (per-session latency sketches + counters) and
    # stack profile.  The parent folds the shard parts together; both
    # algebras are all-integer, so the fleet-level artifacts are
    # byte-identical for any shard count or merge order.
    write_json(part("telemetry"), FleetTelemetry.from_sessions(
        SessionTelemetry.from_result(index, result)
        for index, result in results).snapshot())
    with open(part("profile"), "w") as fp:
        fp.write(profile_from_results(r for _, r in results).to_json())


def write_session_part(trace_dir: str, index: int,
                       result: SessionResult) -> None:
    """Write ONE session's artifacts as a standalone part file set.

    A single-session part is just a one-session shard
    (``shard-<index>.{trace,metrics}.jsonl`` + ``.telemetry.json``), so
    :func:`merge_trace_artifacts` folds any mix of multi-session shards
    and single-session parts into the same merged bytes — the sketch
    algebra is exactly associative and part names sort in global session
    order either way.  The daemon (:mod:`repro.core.daemon`) uses this
    for crash-safe checkpointing: each completed session becomes one
    idempotent part file set plus one journal line.
    """
    _write_shard_artifacts(trace_dir, [(index, result)])


def merge_trace_artifacts(trace_dir: str) -> Tuple[str, str]:
    """Merge shard part files into the fleet-level artifacts.

    JSONL parts are concatenated in part-name (= global session) order,
    telemetry and profile parts folded with their exactly associative
    ``merge``, plus ``telemetry.prom``; the parts are removed afterwards
    (DESIGN.md §5i lists every merge rule).  Every merged byte is
    identical for any worker/shard count, which the artifact tests
    assert.
    """
    from repro.core.telemetry import FleetTelemetry
    from repro.profiling import Profile

    run = RunListing.scan(trace_dir)
    for kind in ("trace", "metrics"):
        with open(run.join(MERGED[kind]), "w") as out_fp:
            for name in run.parts(kind):
                with open(run.join(name)) as fp:
                    out_fp.write(fp.read())
    fleet = run.fold(run.parts("telemetry"), FleetTelemetry.from_snapshot,
                     FleetTelemetry())
    write_json(run.join(MERGED["telemetry"]), fleet.snapshot())
    with open(run.join(TELEMETRY_PROM), "w") as fp:
        fp.write(fleet.to_prometheus())
    fleet_profile = run.fold(run.parts("profile"), Profile.from_dict,
                             Profile())
    with open(run.join(MERGED["profile"]), "w") as fp:
        fp.write(fleet_profile.to_json())
    for kind in MERGED:
        for name in run.parts(kind):
            os.remove(run.join(name))
    return run.join(MERGED["trace"]), run.join(MERGED["metrics"])


def _run_shard(payload) -> List[Tuple[int, SessionResult]]:
    """Worker entry: replay one shard of (global index, session) pairs."""
    (indices, sessions, detector, ct_ms, mode, frauddroid, conf,
     fault_plan, darpa_kwargs, trace, trace_dir) = payload
    out: List[Tuple[int, SessionResult]] = []
    for index, session in zip(indices, sessions):
        result = run_darpa_session(
            session, detector, ct_ms=ct_ms, mode=mode,
            monkey_seed=1000 + index, frauddroid=frauddroid,
            conf_threshold=conf, fault_plan=fault_plan,
            darpa_kwargs=darpa_kwargs, trace=trace,
        )
        out.append((index, result))
    if trace_dir is not None and out:
        _write_shard_artifacts(trace_dir, out)
    return out


def _pool_context():
    """Prefer fork (cheap, copy-on-write memos); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def run_darpa_over_fleet_parallel(
    sessions: Sequence[FleetSession],
    detector,
    ct_ms: float = 200.0,
    mode: str = "full",
    frauddroid=None,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    n_workers: Optional[int] = None,
    n_shards: Optional[int] = None,
    fault_plan=None,
    darpa_kwargs=None,
    trace: bool = False,
    trace_dir: Optional[str] = None,
) -> List[SessionResult]:
    """Run a fleet across worker processes; results in fleet order.

    ``n_workers`` defaults to the machine's core count (capped by the
    fleet size); ``n_shards`` defaults to ``n_workers``.  With one
    worker (or a one-session fleet) the sequential runner is called
    inline — no pool, no pickling.  ``fault_plan``/``darpa_kwargs``
    forward to :func:`run_darpa_session`; fault seeds travel with the
    global index, so chaos runs are shard-invariant too.

    ``trace=True`` traces every session (results carry spans/metrics).
    ``trace_dir`` (implies tracing) additionally writes per-shard part
    files and merges them into the fleet artifacts by global session
    index — byte-identical for any worker/shard count.
    """
    if trace_dir is not None:
        trace = True
        os.makedirs(trace_dir, exist_ok=True)
    n = len(sessions)
    if n_workers is None:
        n_workers = min(n, os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, n)) if n else 1
    if n_workers <= 1 or n <= 1:
        results = run_darpa_over_fleet(
            sessions, detector, ct_ms=ct_ms, mode=mode,
            frauddroid=frauddroid, conf_threshold=conf_threshold,
            fault_plan=fault_plan, darpa_kwargs=darpa_kwargs, trace=trace)
        if trace_dir is not None and results:
            # Same shard-then-merge path as the pool, with one shard:
            # the merged bytes must not depend on how the fleet ran.
            _write_shard_artifacts(trace_dir, list(enumerate(results)))
            merge_trace_artifacts(trace_dir)
        return results
    if n_shards is None:
        n_shards = n_workers
    n_shards = max(1, min(n_shards, n))

    # Contiguous index shards.  The split is cosmetic for determinism —
    # seeds travel with the global index — but contiguity keeps each
    # worker's wall-clock profile close to the sequential runner's.
    bounds = [round(i * n / n_shards) for i in range(n_shards + 1)]
    payloads = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        indices = list(range(lo, hi))
        payloads.append((indices, list(sessions[lo:hi]), detector, ct_ms,
                         mode, frauddroid, conf_threshold, fault_plan,
                         darpa_kwargs, trace, trace_dir))

    merged: List[Optional[SessionResult]] = [None] * n
    with ProcessPoolExecutor(max_workers=n_workers,
                             mp_context=_pool_context()) as pool:
        for shard in pool.map(_run_shard, payloads):
            for index, result in shard:
                merged[index] = result
    assert all(r is not None for r in merged), "lost a session result"
    if trace_dir is not None:
        merge_trace_artifacts(trace_dir)
    return merged  # type: ignore[return-value]
