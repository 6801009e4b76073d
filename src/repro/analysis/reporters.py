"""darpalint and darpaflow output: deterministic text and JSON reports.

Both analyzers' findings (:class:`repro.analysis.engine.Finding` and
:class:`repro.analysis.flow.taint.FlowFinding`) expose ``.rule``,
``.render()`` and ``.to_dict()``, so one pair of renderers serves both.
They consume the already-sorted finding list and add nothing
run-dependent (no timestamps, no absolute paths, no ordering
surprises), so two runs over the same tree — whatever the input path
order — produce byte-identical reports.  CI uploads the JSON form as
an artifact; the schema is versioned so downstream tooling can gate
on it.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional, Sequence

from repro.exits import fail

#: Bump when the JSON report schema changes shape.
REPORT_VERSION = 1


def _by_rule(findings: Sequence) -> Dict[str, int]:
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return by_rule


def render_text(findings: Sequence, noun: str = "finding",
                clean: str = "no findings") -> str:
    """Human-facing report: one entry per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        breakdown = ", ".join(f"{rule}={count}" for rule, count
                              in sorted(_by_rule(findings).items()))
        lines.append("")
        lines.append(f"{len(findings)} {noun}(s) ({breakdown})")
    else:
        lines.append(f"clean: {clean}")
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence) -> str:
    """Machine-facing report (sorted keys, stable ordering)."""
    payload = {
        "version": REPORT_VERSION,
        "count": len(findings),
        "by_rule": _by_rule(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(findings: Sequence, fmt: str = "text", noun: str = "finding",
           clean: str = "no findings") -> str:
    if fmt == "text":
        return render_text(list(findings), noun, clean)
    if fmt == "json":
        return render_json(list(findings))
    raise ValueError(f"unknown report format {fmt!r}")


def emit(prog: str, findings: Sequence, fmt: str, output: Optional[str],
         noun: str = "finding", clean: str = "no findings") -> int:
    """Write the report to ``output`` (or stdout); the CLI's exit code.

    1 when there are findings, 0 when clean, 2 when ``output`` cannot
    be written (:mod:`repro.exits`).
    """
    report = render(findings, fmt, noun, clean)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fp:
                fp.write(report)
        except OSError as exc:
            return fail(prog, f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(report)
    return 1 if findings else 0


__all__ = ["REPORT_VERSION", "emit", "render", "render_json",
           "render_text"]
