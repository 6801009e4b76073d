"""darpalint command line (``python -m repro lint`` / ``-m repro.analysis``).

Exit codes are :mod:`repro.exits`'s: ``0`` every linted file is
clean, ``1`` at least one finding (listed on stdout), ``2`` usage
error — missing path, unknown rule id, malformed config, unwritable
``--output`` (reason on stderr).

The module deliberately avoids importing the rest of :mod:`repro`
(and its numpy dependency): ``python -m repro.analysis src/`` works in
a bare stdlib environment, which is what keeps the CI lint job cheap.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.config import ConfigError, LintConfig, load_config
from repro.analysis.engine import LintEngine, LintPathError
from repro.analysis.reporters import emit
from repro.analysis.rules import default_rules, rules_for_ids
from repro.exits import fail


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & sim-correctness linter "
                    "(rules DL001-DL008).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--rules", default=None, metavar="DL001,DL003",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry (id, summary, "
                             "allowlisted paths from pyproject) and exit")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="pyproject.toml to read [tool.darpalint] "
                             "from (default: nearest upward from cwd)")
    parser.add_argument("--no-config", action="store_true",
                        help="ignore [tool.darpalint] entirely "
                             "(no allowlists, no excludes)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the report here instead of stdout")
    return parser


def render_rule_list(config: LintConfig) -> str:
    """One deterministic line per registered rule.

    Shows each rule's id, name and summary, plus — when the loaded
    ``[tool.darpalint.allow]`` table allowlists paths for it — the
    globs the rule is intentionally off for, so config debugging
    doesn't require reading ``rules.py``.
    """
    lines = []
    for rule in default_rules():
        allowed = config.allow.get(rule.id, ())
        state = (f"allowlisted for: {', '.join(allowed)}" if allowed
                 else "enabled everywhere")
        lines.append(f"{rule.id}  {rule.name:<32} {rule.summary}")
        lines.append(f"       {state}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.no_config:
        config = LintConfig()
    else:
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            return fail("lint", f"bad config: {exc}")

    if args.list_rules:
        sys.stdout.write(render_rule_list(config))
        return 0

    if args.rules is None:
        rules = default_rules()
    else:
        try:
            rules = rules_for_ids(args.rules.split(","))
        except KeyError as exc:
            known = ", ".join(sorted(r.id for r in default_rules()))
            return fail("lint", f"unknown rule id {exc.args[0]!r} "
                                f"(known: {known})")

    engine = LintEngine(rules=rules, config=config)
    try:
        findings = engine.lint_paths(list(args.paths))
    except LintPathError as exc:
        return fail("lint", str(exc))
    return emit("lint", findings, args.format, args.output)


__all__ = ["build_parser", "main", "render_rule_list"]
