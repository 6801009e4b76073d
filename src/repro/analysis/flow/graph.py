"""darpaflow program graph: modules, functions, callee resolution.

The interprocedural analysis needs two maps built once per run:

- a **module graph**: every analyzed file parsed, its canonical dotted
  module name derived from the package layout (walking up while
  ``__init__.py`` exists, so ``src/repro/core/daemon.py`` is
  ``repro.core.daemon`` whatever directory the scan started from; a
  loose file without a package is just its stem), plus darpalint's
  import-alias table so ``from time import time as now`` still
  resolves to ``time.time``;
- a **function registry**: every ``def`` (including methods, keyed
  ``module.Class.method``) with its AST body, parameter names, and the
  enclosing class, ready for summary computation.

Callee resolution is deliberately conservative and its misses are the
analysis' documented false-negative edges (DESIGN §5k): ``self.m()``
resolves within the enclosing class, ``mod.f()`` through the alias
table, ``f()`` against the current module — anything else (callables
in variables, duck-typed receivers, ``getattr``) is an *unknown* call,
through which taint still flows args→result but whose body is never
entered.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import (
    _collect_aliases,
    display_path,
    iter_python_files,
)


@dataclass(frozen=True)
class FunctionInfo:
    """One analyzed ``def``: identity plus what the summaries need."""

    qualname: str            # module.[Class.]name
    module: str
    cls: Optional[str]       # enclosing class name, if a method
    name: str
    path: str                # display path of the defining file
    lineno: int
    params: Tuple[str, ...]  # positional+kw-only names, ``self`` kept
    node: ast.AST = field(compare=False, hash=False, repr=False)


@dataclass
class ModuleInfo:
    """One parsed file."""

    path: str                # display path
    module: str              # canonical dotted name
    tree: ast.AST
    aliases: Dict[str, str]
    source_lines: Sequence[str]


@dataclass
class ProgramGraph:
    """Everything :mod:`repro.analysis.flow.taint` walks."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: files that failed to parse: display path -> error message.
    parse_errors: Dict[str, str] = field(default_factory=dict)

    def resolve_callee(self, dotted: Optional[str], module: str,
                       cls: Optional[str]) -> Optional[FunctionInfo]:
        """Known :class:`FunctionInfo` for a resolved callee name.

        ``dotted`` is the alias-expanded callee (``repro.ops.routes.
        canonical_bytes``, ``helper``, ``self.close``); ``module`` and
        ``cls`` locate the call site.  Returns None for unknown calls.
        """
        if dotted is None:
            return None
        if cls is not None and dotted.startswith("self."):
            return self.functions.get(
                f"{module}.{cls}.{dotted[len('self.'):]}")
        hit = self.functions.get(dotted)
        if hit is not None:
            return hit
        return self.functions.get(f"{module}.{dotted}")


def module_name_for(path: str) -> str:
    """Canonical dotted module name from the package layout on disk."""
    abspath = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(abspath))[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    here = os.path.dirname(abspath)
    while os.path.isfile(os.path.join(here, "__init__.py")):
        parts.insert(0, os.path.basename(here))
        parent = os.path.dirname(here)
        if parent == here:  # pragma: no cover - filesystem root package
            break
        here = parent
    return ".".join(parts) if parts else stem


def _collect_functions(info: ModuleInfo,
                       registry: Dict[str, FunctionInfo]) -> None:
    """Register every top-level function and every method.

    Nested ``def``s (functions inside functions) are deliberately NOT
    registered: their closures would need environment capture the
    lattice does not model, so calls to them stay unknown calls —
    taint still flows through args→result conservatively.
    """
    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = tuple(
                    a.arg for a in
                    getattr(args, "posonlyargs", []) + args.args
                    + args.kwonlyargs)
                qual = (f"{info.module}.{cls}.{child.name}" if cls
                        else f"{info.module}.{child.name}")
                registry[qual] = FunctionInfo(
                    qualname=qual, module=info.module, cls=cls,
                    name=child.name, path=info.path, lineno=child.lineno,
                    params=params, node=child)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)

    visit(info.tree, None)


def build_graph(paths: Sequence[str]) -> ProgramGraph:
    """Parse every python file under ``paths`` into a program graph.

    File discovery reuses darpalint's sorted, deduplicated walk, so
    the graph — and everything derived from it — is identical for any
    input path order.  Unparseable files land in ``parse_errors``
    instead of aborting the run.
    """
    graph = ProgramGraph()
    for path in iter_python_files(paths):
        shown = display_path(path)
        try:
            with open(path, encoding="utf-8") as fp:
                source = fp.read()
        except OSError as exc:
            graph.parse_errors[shown] = f"cannot read: {exc}"
            continue
        try:
            tree = ast.parse(source, filename=shown)
        except SyntaxError as exc:
            graph.parse_errors[shown] = f"does not parse: {exc.msg}"
            continue
        info = ModuleInfo(path=shown, module=module_name_for(path),
                          tree=tree, aliases=_collect_aliases(tree),
                          source_lines=source.splitlines())
        graph.modules[shown] = info
        _collect_functions(info, graph.functions)
    return graph


__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProgramGraph",
    "build_graph",
    "module_name_for",
]
