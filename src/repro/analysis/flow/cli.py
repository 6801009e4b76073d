"""darpaflow command line (``repro flow`` / ``python -m repro.analysis.flow``).

Exit codes are :mod:`repro.exits`'s: ``0`` no unsanitized flows,
``1`` at least one flow (traces on stdout), ``2`` usage error —
missing path, unwritable output (reason on stderr).  A flow is
accepted only by a reviewed ``# darpaflow: sanitized=REASON`` marker
in the source; nothing is read from ``pyproject.toml`` or a baseline
file.

Like darpalint's CLI, this module stays importable in a bare stdlib
environment (no numpy), which keeps the CI lint job cheap.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.engine import LintPathError
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
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the report here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        findings = analyze_paths(list(args.paths))
    except LintPathError as exc:
        return fail("flow", str(exc))
    return emit("flow", findings, args.format, args.output, noun="flow",
                clean="no unsanitized flows")


__all__ = ["build_parser", "main"]
