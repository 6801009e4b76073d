"""darpalint core: AST walking, findings, suppressions, orchestration.

The engine is a zero-dependency (stdlib ``ast``) static analyzer for
the repo's own determinism invariants.  Everything downstream of the
batched/sharded serving path assumes behaviour is a pure function of
the simulated clock and explicit seeds; the rules in
:mod:`repro.analysis.rules` flag the source-level patterns that break
that assumption (wall clocks, unseeded RNGs, unordered iteration in
merge paths, float accumulation, swallowed exceptions).

Design notes:

- One AST walk per file.  The walker maintains the ancestor stack and
  the enclosing-function name stack; rules are passed a
  :class:`FileContext` exposing both plus import-alias resolution
  (``np.random.rand`` resolves to ``numpy.random.rand`` whatever the
  import spelling was).
- Findings are plain sortable records.  The engine stable-sorts by
  ``(path, line, col, rule)`` and deduplicates, so output is
  byte-identical for any input path order — the same invariant the
  linted code is held to.
- ``# darpalint: disable=DL001[,DL002|all]`` on a finding's line
  suppresses it.  That marker is the only exemption, so every
  justification sits next to the code it excuses.
- A file that fails to parse yields a single :data:`PARSE_ERROR_RULE`
  finding instead of crashing the run.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: Pseudo-rule reported for files the parser rejects.
PARSE_ERROR_RULE = "DL000"

_SUPPRESS_RE = re.compile(
    r"#\s*darpalint:\s*disable=([A-Za-z0-9_,\s]+)")


class LintPathError(Exception):
    """A requested lint target does not exist or is not lintable."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location.

    Ordering is the output ordering: path, then line, then column,
    then rule id — fully deterministic regardless of rule evaluation
    or file traversal order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f" [{self.hint}]"
        return text


@dataclass
class FileContext:
    """Per-file state handed to every rule check.

    ``stack`` is the ancestor node list (outermost first, current node
    excluded); ``scope`` the enclosing function-name stack.  Both are
    live views maintained by the walker — rules must not mutate them.
    """

    path: str
    source_lines: Sequence[str]
    aliases: Dict[str, str] = field(default_factory=dict)
    stack: List[ast.AST] = field(default_factory=list)
    scope: List[str] = field(default_factory=list)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, import aliases expanded.

        ``Name('np')`` → ``numpy``; ``Attribute(Name('np'), 'random')``
        → ``numpy.random``; anything non-name-like → ``None``.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def scope_name(self) -> str:
        """Dotted enclosing-function name (empty at module level)."""
        return ".".join(self.scope)

    def enclosing_calls(self) -> Iterator[str]:
        """Resolved callee names of enclosing Call ancestors, innermost
        first (used to recognise ``sorted(... for ... in unordered)``)."""
        for ancestor in reversed(self.stack):
            if isinstance(ancestor, ast.Call):
                name = self.resolve(ancestor.func)
                if name is not None:
                    yield name


def _collect_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to canonical dotted import paths."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}")
    return aliases


def _collect_suppressions(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Line number → set of upper-cased rule ids disabled on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source_lines, 1):
        match = _SUPPRESS_RE.search(line)
        if match:
            out[lineno] = {token.strip().upper()
                           for token in match.group(1).split(",")
                           if token.strip()}
    return out


def display_path(path: str) -> str:
    """Stable posix-style display path (relative to cwd when inside)."""
    abspath = os.path.abspath(path)
    cwd = os.getcwd()
    if abspath == cwd or abspath.startswith(cwd + os.sep):
        abspath = os.path.relpath(abspath, cwd)
    return abspath.replace(os.sep, "/")


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, deduplicated file list.

    Directories are walked recursively for ``*.py`` (sorted at every
    level, ``__pycache__`` pruned); explicit file arguments are taken
    as-is.  The returned display paths are sorted, so any input order
    — including shuffled — yields the same lint run.
    """
    found: Dict[str, None] = {}
    for path in paths:
        if os.path.isfile(path):
            found[display_path(path)] = None
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found[display_path(os.path.join(dirpath, name))] = None
        else:
            raise LintPathError(f"no such file or directory: {path}")
    return sorted(found)


class _Walker:
    """Single-pass AST visitor dispatching every node to every rule."""

    def __init__(self, rules: Sequence, ctx: FileContext):
        self.rules = rules
        self.ctx = ctx
        self.findings: List[Finding] = []

    def walk(self, node: ast.AST) -> None:
        for rule in self.rules:
            self.findings.extend(rule.check(node, self.ctx))
        is_scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_scope:
            self.ctx.scope.append(node.name)
        self.ctx.stack.append(node)
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        self.ctx.stack.pop()
        if is_scope:
            self.ctx.scope.pop()


class LintEngine:
    """Runs a rule set over sources, applying inline suppressions."""

    def __init__(self, rules: Optional[Sequence] = None):
        if rules is None:
            from repro.analysis.rules import default_rules
            rules = default_rules()
        self.rules = tuple(rules)

    def lint_source(self, source: str, path: str = "<string>"
                    ) -> List[Finding]:
        """Lint one source text; returns sorted, filtered findings."""
        source_lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            finding = Finding(path=path, line=exc.lineno or 1,
                              col=(exc.offset or 1) - 1,
                              rule=PARSE_ERROR_RULE,
                              message=f"file does not parse: {exc.msg}",
                              hint="fix the syntax error to lint this file")
            return self._filter([finding], source_lines)
        ctx = FileContext(path=path, source_lines=source_lines,
                          aliases=_collect_aliases(tree))
        walker = _Walker(self.rules, ctx)
        walker.walk(tree)
        return self._filter(walker.findings, source_lines)

    def lint_file(self, path: str) -> List[Finding]:
        shown = display_path(path)
        try:
            with open(path, encoding="utf-8") as fp:
                source = fp.read()
        except OSError as exc:
            raise LintPathError(f"cannot read {shown}: {exc}")
        return self.lint_source(source, path=shown)

    def lint_paths(self, paths: Sequence[str]) -> List[Finding]:
        """Lint files and/or directory trees; deterministic output.

        The expanded file list is sorted and deduplicated first, so
        shuffling the input path order cannot change a byte of the
        report.
        """
        findings: List[Finding] = []
        for path in iter_python_files(paths):
            findings.extend(self.lint_file(path))
        return sorted(set(findings))

    # -- filtering -------------------------------------------------------

    def _filter(self, findings: Iterable[Finding],
                source_lines: Sequence[str]) -> List[Finding]:
        suppressions = _collect_suppressions(source_lines)
        out = []
        for finding in findings:
            disabled = suppressions.get(finding.line, ())
            if finding.rule in disabled or "ALL" in disabled:
                continue
            out.append(finding)
        return sorted(set(out))


def lint_paths(paths: Sequence[str],
               rules: Optional[Sequence] = None) -> List[Finding]:
    """Convenience one-shot: lint ``paths`` with ``rules``."""
    return LintEngine(rules=rules).lint_paths(paths)


__all__ = [
    "Finding",
    "FileContext",
    "LintEngine",
    "LintPathError",
    "PARSE_ERROR_RULE",
    "display_path",
    "iter_python_files",
    "lint_paths",
]
