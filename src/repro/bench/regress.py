"""Benchmark regression gate: diff fresh output against a baseline.

The committed ``BENCH_*.json`` files at the repo root are the
benchmark trajectory — until now nothing watched it.  This module
compares a freshly generated benchmark payload against its committed
baseline within **explicit tolerances** and exits non-zero on any
drift, so CI fails when a change regresses a measured number (or
silently changes the payload schema).

Rules are matched by fnmatch pattern over the slash-joined path of
each leaf (e.g. ``rows/0/cpu_pct``); the first matching rule wins and
unmatched numeric leaves must be **exactly** equal.  Drift in either
direction fails: an unexplained improvement is as suspicious as a
regression when the workload is seeded and deterministic.

Usage::

    python -m repro.bench.regress --baseline BENCH_slo.json \
        --fresh /tmp/fresh/BENCH_slo.json [--rule 'rows/*/cpu_pct=rel:0.1']

Payloads carrying a :data:`repro.bench.provenance.MANIFEST_KEY` block
are compared manifest-first: when the two manifests describe different
experiments (corpus version, seed base, config hash — ``git_sha`` is
exempt) the diff is refused outright, because tolerances are
meaningless across experiments.  ``--ignore-manifest`` overrides the
refusal; the manifest block itself is always excluded from the
value diff.

Payloads may also embed a deterministic stack profile under
:data:`repro.profiling.PROFILE_KEY` (``benchmarks/bench_slo.py`` does).
Like the manifest it is **always** excluded from the value diff; with
``--explain``, a failing gate additionally diffs the two profiles and
prints the ranked per-frame attribution report (which stage/kernel
step ate the milliseconds) to stderr.  ``--explain-out FILE`` writes
the same attribution as JSON — CI uploads it as the failure artifact.
``--explain`` never changes the exit code: attribution is a
diagnostic, the gate is the gate.

Exit codes (:mod:`repro.exits`): 0 = within tolerance, 1 = regression
detected, 2 = usage error (missing/unreadable file, a payload that is
not a JSON object, malformed rule or negative/non-finite tolerance),
3 = provenance manifest mismatch (payloads are not comparable).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.provenance import MANIFEST_KEY, manifest_mismatches
from repro.exits import fail
from repro.profiling import PROFILE_KEY, Profile, diff_profiles, report_lines

#: Tolerance classes for a leaf value: ``rel`` is a fraction of the
#: baseline magnitude, ``abs_tol`` an absolute slack; a value passes
#: when within ``max(abs_tol, rel * |baseline|)`` of the baseline.
@dataclass(frozen=True)
class Rule:
    pattern: str
    rel: float = 0.0
    abs_tol: float = 0.0

    def allows(self, baseline: float, fresh: float) -> bool:
        return abs(fresh - baseline) <= max(self.abs_tol,
                                            self.rel * abs(baseline))


#: Default tolerances for the committed benchmark payloads.  Counters,
#: flags and alert records are exact; modelled averages get a small
#: relative band (they shift only when the cost model or workload
#: does); wall-clock micro-bench timings are inherently noisy.
DEFAULT_RULES: Tuple[Rule, ...] = (
    Rule("*cpu_pct*", rel=0.02),
    Rule("*power_mw*", rel=0.02),
    Rule("*memory_mb*", rel=0.02),
    Rule("*recall*", abs_tol=0.02),
    Rule("*quantiles*", rel=0.05),
    Rule("*compliance*", abs_tol=0.02),
    Rule("*burn_rate*", rel=0.25),
    Rule("*forward_ms*", rel=0.6),
    Rule("*speedup*", rel=0.5),
)


@dataclass(frozen=True)
class Violation:
    path: str
    reason: str
    baseline: object = None
    fresh: object = None

    def __str__(self) -> str:
        detail = ""
        if self.baseline is not None or self.fresh is not None:
            detail = f" (baseline={self.baseline!r}, fresh={self.fresh!r})"
        return f"{self.path or '<root>'}: {self.reason}{detail}"


def _rule_for(path: str, rules: Sequence[Rule]) -> Optional[Rule]:
    for rule in rules:
        if fnmatchcase(path, rule.pattern):
            return rule
    return None


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(baseline: object, fresh: object,
            rules: Sequence[Rule] = DEFAULT_RULES,
            path: str = "") -> List[Violation]:
    """Structural diff with per-leaf tolerances; returns violations."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        out: List[Violation] = []
        for key in sorted(baseline):
            child = f"{path}/{key}" if path else str(key)
            if key not in fresh:
                out.append(Violation(child, "missing from fresh payload",
                                     baseline=baseline[key]))
                continue
            out.extend(compare(baseline[key], fresh[key], rules, child))
        for key in sorted(set(fresh) - set(baseline)):
            child = f"{path}/{key}" if path else str(key)
            out.append(Violation(child, "not in baseline (schema drift)",
                                 fresh=fresh[key]))
        return out
    if isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            return [Violation(path, "length changed",
                              baseline=len(baseline), fresh=len(fresh))]
        out = []
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            out.extend(compare(b, f, rules, f"{path}/{i}" if path else str(i)))
        return out
    if _is_number(baseline) and _is_number(fresh):
        rule = _rule_for(path, rules)
        if rule is None:
            if baseline != fresh:
                return [Violation(path, "exact-match value drifted",
                                  baseline=baseline, fresh=fresh)]
            return []
        if not rule.allows(float(baseline), float(fresh)):
            allowed = max(rule.abs_tol, rule.rel * abs(float(baseline)))
            return [Violation(
                path, f"outside tolerance +/-{allowed:g} "
                      f"(rule {rule.pattern!r})",
                baseline=baseline, fresh=fresh)]
        return []
    if type(baseline) is not type(fresh):
        return [Violation(path, "type changed",
                          baseline=type(baseline).__name__,
                          fresh=type(fresh).__name__)]
    if baseline != fresh:
        return [Violation(path, "value changed",
                          baseline=baseline, fresh=fresh)]
    return []


def parse_rule(text: str) -> Rule:
    """Parse ``PATTERN=rel:0.1`` / ``PATTERN=abs:2.5`` CLI rules."""
    try:
        pattern, spec = text.split("=", 1)
        kind, raw = spec.split(":", 1)
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad rule {text!r}; expected PATTERN=rel:F or PATTERN=abs:F")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"bad rule {text!r}; the tolerance must be finite and >= 0")
    if kind == "rel":
        return Rule(pattern, rel=value)
    if kind == "abs":
        return Rule(pattern, abs_tol=value)
    raise argparse.ArgumentTypeError(
        f"bad rule kind {kind!r}; expected 'rel' or 'abs'")


def _load(path: str) -> Dict:
    with open(path) as fp:
        payload = json.load(fp)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, not "
                         f"{type(payload).__name__}")
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regress",
        description="Fail when fresh benchmark output drifts from its "
                    "committed baseline beyond explicit tolerances.",
    )
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json baseline")
    parser.add_argument("--fresh", required=True,
                        help="freshly generated benchmark payload")
    parser.add_argument("--rule", action="append", type=parse_rule,
                        default=[], metavar="PATTERN=rel:F|abs:F",
                        help="extra tolerance rule (checked before the "
                             "defaults; repeatable)")
    parser.add_argument("--ignore-manifest", action="store_true",
                        help="diff the values even when the provenance "
                             "manifests disagree (exit 3 otherwise)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-violation listing")
    parser.add_argument("--explain", action="store_true",
                        help="on failure, diff the embedded profiles and "
                             "print the ranked per-frame attribution")
    parser.add_argument("--explain-out", metavar="FILE", default=None,
                        help="write the failure attribution as JSON "
                             "(implies --explain)")
    parser.add_argument("--explain-top", type=int, default=15,
                        metavar="N", help="frames to print with --explain")
    return parser


def _parse_profile(tag: str, payload: object) -> Optional[Profile]:
    """A popped profile block as a Profile, or None (with a note)."""
    if payload is None:
        return None
    try:
        return Profile.from_dict(payload)  # type: ignore[arg-type]
    except (ValueError, TypeError, AttributeError) as exc:
        print(f"regress: ignoring malformed profile block in {tag}: {exc}",
              file=sys.stderr)
        return None


def _explain(baseline_profile: Optional[Profile],
             fresh_profile: Optional[Profile],
             violations: Sequence[Violation],
             top: int, out_path: Optional[str]) -> None:
    """Print (and optionally write) the failure attribution report."""
    if baseline_profile is None or fresh_profile is None:
        missing = [tag for tag, prof in (("baseline", baseline_profile),
                                         ("fresh", fresh_profile))
                   if prof is None]
        print(f"regress: --explain: no profile block in "
              f"{' and '.join(missing)} payload(s); cannot attribute",
              file=sys.stderr)
        attribution = None
    else:
        diff = diff_profiles(baseline_profile, fresh_profile)
        print("regress: attribution (embedded profile diff):",
              file=sys.stderr)
        for line in report_lines(diff, top_n=top):
            print(f"  {line}", file=sys.stderr)
        attribution = diff.to_dict()
    if out_path is not None:
        try:
            with open(out_path, "w") as fp:
                json.dump({"violations": [str(v) for v in violations],
                           "attribution": attribution},
                          fp, sort_keys=True, indent=2)
                fp.write("\n")
        except OSError as exc:
            print(f"regress: cannot write --explain-out {out_path}: {exc}",
                  file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        baseline = _load(args.baseline)
    except (OSError, ValueError) as exc:
        return fail("regress", f"cannot read baseline {args.baseline}: "
                               f"{exc}")
    try:
        fresh = _load(args.fresh)
    except (OSError, ValueError) as exc:
        return fail("regress", f"cannot read fresh payload {args.fresh}: "
                               f"{exc}")
    # Profile blocks ride along for --explain but are never part of the
    # value diff (same contract as the manifest): the gate judges the
    # measured numbers, the profile explains them.
    baseline_profile = baseline.pop(PROFILE_KEY, None)
    fresh_profile = fresh.pop(PROFILE_KEY, None)
    # Manifest gate first: numbers from different experiments are not
    # comparable, no matter how tolerant the rules.
    baseline_manifest = baseline.pop(MANIFEST_KEY, None)
    fresh_manifest = fresh.pop(MANIFEST_KEY, None)
    mismatches = manifest_mismatches(baseline_manifest, fresh_manifest)
    if mismatches and not args.ignore_manifest:
        reason = (f"provenance mismatch between {args.baseline} and "
                  f"{args.fresh}; refusing to compare:")
        for mismatch in mismatches:
            reason += f"\n  {mismatch}"
        return fail("regress",
                    reason + "\n  (pass --ignore-manifest to diff anyway)", 3)
    rules = tuple(args.rule) + DEFAULT_RULES
    violations = compare(baseline, fresh, rules)
    if violations:
        if not args.quiet:
            print(f"regress: {len(violations)} regression(s) against "
                  f"{args.baseline}:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
        if args.explain or args.explain_out is not None:
            _explain(_parse_profile(args.baseline, baseline_profile),
                     _parse_profile(args.fresh, fresh_profile),
                     violations, args.explain_top, args.explain_out)
        return 1
    print(f"regress: {args.fresh} matches {args.baseline} within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
