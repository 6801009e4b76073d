"""darpaflow command line (``repro flow`` / ``python -m repro.analysis.flow``).

Exit codes are :mod:`repro.exits`'s: ``0`` no unbaselined flows,
``1`` at least one new flow (traces on stdout), ``2`` usage error —
missing path, malformed config or baseline, unwritable output (reason
on stderr).  ``--update-baseline`` treats only a *missing* baseline
file as empty: a present but malformed one exits 2 and is left as it
is, so its reviewed reasons are never overwritten.

Like darpalint's CLI, this module stays importable in a bare stdlib
environment (no numpy), which keeps the CI lint job cheap.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional, Sequence

from repro.analysis.config import ConfigError
from repro.analysis.engine import LintPathError
from repro.analysis.flow.baseline import (
    BaselineError,
    load_baseline,
    partition,
    write_baseline,
)
from repro.analysis.flow.specs import FlowSpecs, load_flow_specs
from repro.analysis.flow.taint import analyze_paths
from repro.analysis.reporters import emit
from repro.exits import fail


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro flow",
        description="Interprocedural nondeterminism taint analysis: "
                    "reports every source->sink flow (DF001-DF007) "
                    "with its full hop trace.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="pyproject.toml to read [tool.darpaflow] "
                             "from (default: nearest upward from cwd)")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.darpaflow] entirely")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="flow-baseline.json of accepted flows to "
                             "subtract before gating")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline accepting every current "
                             "flow (preserves existing reasons), then "
                             "exit 0")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the report here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.update_baseline and not args.baseline:
        return fail("flow", "--update-baseline requires --baseline FILE")

    if args.no_config:
        specs = FlowSpecs()
    else:
        try:
            specs = load_flow_specs(args.config)
        except ConfigError as exc:
            return fail("flow", f"bad config: {exc}")

    try:
        findings = analyze_paths(list(args.paths), specs)
    except LintPathError as exc:
        return fail("flow", str(exc))

    accepted = {}
    if args.baseline and (not args.update_baseline
                          or os.path.exists(args.baseline)):
        try:
            accepted = load_baseline(args.baseline)
        except BaselineError as exc:
            return fail("flow", str(exc))

    if args.update_baseline:
        try:
            count = write_baseline(args.baseline, findings, accepted)
        except OSError as exc:
            return fail("flow", f"cannot write {args.baseline}: {exc}")
        print(f"flow: baseline {args.baseline} now accepts {count} "
              f"flow(s)")
        return 0

    fresh, known = partition(findings, accepted)
    return emit("flow", fresh, args.format, args.output, noun="flow",
                clean="no unsanitized flows", baselined=len(known))


__all__ = ["build_parser", "main"]
