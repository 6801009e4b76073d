"""``repro profile`` — fold, render, and diff deterministic profiles.

- ``repro profile RUN``              summary + top-N hottest frames
- ``repro profile RUN --fold``       folded stacks on stdout (flamegraph
  input; nothing else touches stdout)
- ``repro profile RUN --json OUT``   write canonical ``profile.json``
- ``repro profile --diff BASE FRESH``  ranked attribution report;
  exits 1 when the profiles differ (regress-style), 0 when identical

``RUN``/``BASE``/``FRESH`` accept a run directory, a ``profile.json``,
a ``BENCH_*.json`` with an embedded profile block, or a span JSONL
dump.  Exit codes are :mod:`repro.exits`'s: 0 = ok/identical,
1 = profiles differ (``--diff`` only), 2 = usage or unreadable source.
Completeness warnings (dropped/orphan spans) go to stderr so ``--fold``
output stays byte-clean for tooling.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.exits import fail
from repro.profiling.diff import diff_profiles, report_lines
from repro.profiling.io import ProfileSourceError, load_profile
from repro.profiling.profile import Profile


def _warn_completeness(tag: str, profile: Profile) -> None:
    if profile.dropped_spans:
        print(f"profile: warning: {tag}: {profile.dropped_spans} span(s) "
              "dropped by the tracer ring buffer — totals undercount",
              file=sys.stderr)
    if profile.orphan_spans:
        print(f"profile: warning: {tag}: {profile.orphan_spans} orphan "
              "span(s) re-rooted (parent evicted before export)",
              file=sys.stderr)


def _run_diff(base_src: str, fresh_src: str, top: int) -> int:
    try:
        base = load_profile(base_src)
        fresh = load_profile(fresh_src)
    except ProfileSourceError as exc:
        return fail("profile", str(exc))
    _warn_completeness(base_src, base)
    _warn_completeness(fresh_src, fresh)
    diff = diff_profiles(base, fresh)
    for line in report_lines(diff, top_n=top):
        print(line)
    return 0 if diff.empty else 1


def run_profile(source: Optional[str] = None,
                diff: Optional[Sequence[str]] = None,
                fold: bool = False, top: int = 15,
                json_out: Optional[str] = None) -> int:
    if diff is not None:
        return _run_diff(diff[0], diff[1], top)
    if source is None:
        return fail("profile", "a SOURCE (or --diff BASE FRESH) is required")
    try:
        profile = load_profile(source)
    except ProfileSourceError as exc:
        return fail("profile", str(exc))
    _warn_completeness(source, profile)
    if json_out is not None:
        try:
            with open(json_out, "w") as fp:
                fp.write(profile.to_json())
        except OSError as exc:
            return fail("profile", f"cannot write {json_out}: {exc}")
    if fold:
        sys.stdout.write(profile.folded_text())
        return 0
    print(f"profile: {profile.sessions} session(s), "
          f"{len(profile.frames)} frame(s), "
          f"{profile.total_cpu_us / 1000.0:.3f} ms attributed CPU")
    shown = profile.top(top)
    if shown:
        print(f"top {len(shown)} frame(s) by attributed CPU:")
        total_macs = profile.total_macs
        for stack, stats in shown:
            share = (f"  mac_share={stats.macs / total_macs:.3f}"
                     if stats.macs and total_macs else "")
            print(f"  {stats.cpu_us / 1000.0:10.3f} ms  "
                  f"x{stats.count:<6d}{share}  {stack}")
    return 0


__all__ = ["run_profile"]
