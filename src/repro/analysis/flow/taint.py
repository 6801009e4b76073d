"""darpaflow taint lattice + interprocedural worklist propagation.

The analysis computes, for every function (and every module top level,
treated as a zero-parameter pseudo-function), a **summary**:

- ``returns`` — taints the return value may carry;
- ``hits`` — taints that reach an artifact-sink call inside the body.

Parameters are modelled as pseudo-taints (``<param:i>``), so one
intraprocedural pass per function produces both the *local* flows
(source called here reaches a sink here) and the *transfer* facts
(parameter ``i`` flows to the return value / to sink ``s`` through
these hops).  The interprocedural engine then iterates all summaries
to fixpoint: a call site expands its callee's summary, binding real
taints to parameter pseudo-taints and splicing the hop chains — so a
``time.time()`` value that crosses three helpers before landing in
``canonical_bytes`` arrives with every hop recorded as ``path:line``.

**Lattice / termination.**  A taint is identified by its source site
``(category, source, origin, param_index, erased)``; an environment
maps names to keyed taint sets with first-writer-wins joins.  Key sets
only grow, are finite (one per source site × sanitizer-erasure set),
and the fixpoint test compares key sets — so the worklist terminates,
and because files, functions and statements are all processed in
sorted/AST order, the result is byte-deterministic for any input path
order (the same invariant the analyzed code is held to).

**Sanitizers and parameters.**  Erasing a real taint is immediate; a
*parameter* pseudo-taint cannot be erased at sanitization time (its
eventual category is unknown), so sanitizers fold their category set
into ``Taint.erased`` and the binding at the call site drops any real
taint whose category was erased en route.  This is what makes
``sorted(x)`` inside a helper kill a listing flow through that helper
without clearing a wall-clock value.

**Documented approximations (false-negative edges, DESIGN §5k):**
calls through variables/``getattr``, duck-typed method receivers,
nested ``def`` closures, and ``*args``/``**kwargs`` fan-in are not
entered (taint still passes args→result through unknown calls);
attribute stores taint the whole object; recursion deeper than the
fixpoint's key growth keeps the first hop chain seen.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.flow.graph import (
    FunctionInfo,
    ModuleInfo,
    ProgramGraph,
    build_graph,
)
from repro.analysis.flow.specs import (
    CATEGORY_IDS,
    FlowSpecs,
    LISTING_METHOD_ATTRS,
    SANITIZED_MARKER_RE,
    SEEDED_CONSTRUCTORS,
)

#: Pseudo-rule for files the parser rejects (mirrors darpalint DL000).
FLOW_PARSE_ERROR_RULE = "DF000"

#: Hop-chain cap: extensions past this keep the existing chain.
MAX_HOPS = 48

#: Fixpoint round cap — a backstop far above any real call depth.
MAX_ROUNDS = 64

_MARKER_RE = re.compile(SANITIZED_MARKER_RE)


@dataclass(frozen=True, order=True)
class Hop:
    """One step of a flow trace, anchored to ``path:line``."""

    path: str
    line: int
    note: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.note}"


@dataclass(frozen=True)
class Taint:
    """One tainted value: where it came from, how it got here."""

    category: str                 # spec category, or "param"
    source: str                   # dotted source name, or "<param:i>"
    origin: Hop
    hops: Tuple[Hop, ...] = ()
    param_index: Optional[int] = None
    erased: Tuple[str, ...] = ()  # categories sanitized along the way

    def key(self) -> Tuple:
        return (self.category, self.source, self.origin,
                self.param_index, self.erased)

    def extend(self, *extra: Hop) -> "Taint":
        hops = self.hops
        for hop in extra:
            if len(hops) >= MAX_HOPS:
                break
            hops = hops + (hop,)
        return Taint(self.category, self.source, self.origin, hops,
                     self.param_index, self.erased)

    def erase(self, categories: Iterable[str]) -> "Taint":
        merged = tuple(sorted(set(self.erased) | set(categories)))
        return Taint(self.category, self.source, self.origin, self.hops,
                     self.param_index, merged)


@dataclass(frozen=True)
class SinkHit:
    """A taint arriving at a sink call (possibly still parametric)."""

    sink: str
    description: str
    hop: Hop
    col: int
    taint: Taint

    def key(self) -> Tuple:
        return (self.sink, self.hop, self.col, self.taint.key())


@dataclass(frozen=True)
class Summary:
    """Fixpoint state of one function / module pseudo-function."""

    returns: Tuple[Taint, ...] = ()
    hits: Tuple[SinkHit, ...] = ()

    def key(self) -> Tuple:
        return (tuple(sorted(t.key() for t in self.returns)),
                tuple(sorted(h.key() for h in self.hits)))


EMPTY_SUMMARY = Summary()

#: name -> keyed taints.  First writer wins per key.
TaintSet = Dict[Tuple, Taint]
Env = Dict[str, TaintSet]


def _union(*sets: TaintSet) -> TaintSet:
    out: TaintSet = {}
    for ts in sets:
        for key, taint in ts.items():
            out.setdefault(key, taint)
    return out


def _marker_lines(source_lines: Sequence[str]) -> Dict[int, str]:
    """Line -> reason for every ``# darpaflow: sanitized=`` marker."""
    out: Dict[int, str] = {}
    for lineno, line in enumerate(source_lines, 1):
        match = _MARKER_RE.search(line)
        if match:
            out[lineno] = match.group(1)
    return out


class _UnitAnalyzer:
    """One intraprocedural pass over a function or module body."""

    def __init__(self, graph: ProgramGraph, specs: FlowSpecs,
                 summaries: Mapping[str, Summary], module: ModuleInfo,
                 qualname: str, cls: Optional[str],
                 body: Sequence[ast.stmt],
                 params: Tuple[str, ...], def_line: int):
        self.graph = graph
        self.specs = specs
        self.summaries = summaries
        self.module = module
        self.qualname = qualname
        self.cls = cls
        self.body = body
        self.markers = _marker_lines(module.source_lines)
        self.returns: TaintSet = {}
        self.hits: Dict[Tuple, SinkHit] = {}
        self.env: Env = {}
        self._suppress = 0
        for index, name in enumerate(params):
            taint = Taint(
                category="param", source=f"<param:{index}>",
                origin=Hop(module.path, def_line,
                           f"parameter {name!r} of {qualname}()"),
                param_index=index)
            self.env[name] = {taint.key(): taint}

    def run(self) -> Summary:
        self._block(self.body)
        return Summary(
            returns=tuple(self.returns[k] for k in sorted(self.returns)),
            hits=tuple(self.hits[k] for k in sorted(self.hits)))

    # -- statements -----------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        suppressed = getattr(stmt, "lineno", 0) in self.markers
        if suppressed:
            self._suppress += 1
        try:
            self._dispatch(stmt)
        finally:
            if suppressed:
                self._suppress -= 1

    def _dispatch(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            ts = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, ts, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value), stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            ts = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                existing = self.env.get(stmt.target.id, {})
                self._assign(stmt.target, _union(existing, ts), stmt.lineno)
            else:
                self._assign(stmt.target, ts, stmt.lineno)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and not self._suppress:
                hop = Hop(self.module.path, stmt.lineno, "return")
                for taint in self._eval(stmt.value).values():
                    extended = taint.extend(hop)
                    self.returns.setdefault(extended.key(), extended)
            elif stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            ts = self._eval(stmt.iter)
            # Two rounds: taint assigned on round one reaches uses that
            # lexically precede the assignment on round two.
            for _ in range(2):
                self._assign(stmt.target, ts, stmt.lineno)
                self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            for _ in range(2):
                self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ts = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, ts, stmt.lineno)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self._eval(sub)
        # Nested defs/classes, imports, pass, etc.: no taint transfer.

    def _assign(self, target: ast.expr, ts: TaintSet, line: int) -> None:
        if self._suppress:
            ts = {}
        if isinstance(target, ast.Name):
            hop = Hop(self.module.path, line, f"-> {target.id}")
            self.env[target.id] = {
                t.extend(hop).key(): t.extend(hop) for t in ts.values()}
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, ts, line)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, ts, line)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Weak update: taint the whole base object.
            base = target.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                existing = self.env.get(base.id, {})
                hop = Hop(self.module.path, line,
                          f"-> {ast.unparse(target)}")
                extended = {t.extend(hop).key(): t.extend(hop)
                            for t in ts.values()}
                self.env[base.id] = _union(existing, extended)

    # -- expressions ----------------------------------------------------

    def _eval(self, node: Optional[ast.expr]) -> TaintSet:
        if node is None:
            return {}
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return _union(self._set_order_taint(node),
                          self._eval_children(node))
        if isinstance(node, ast.Lambda):
            return {}
        return self._eval_children(node)

    def _eval_children(self, node: ast.expr) -> TaintSet:
        parts = []
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for comp in node.generators:
                ts = self._eval(comp.iter)
                self._assign(comp.target, ts, node.lineno)
                for cond in comp.ifs:
                    parts.append(self._eval(cond))
            if isinstance(node, ast.DictComp):
                parts += [self._eval(node.key), self._eval(node.value)]
            else:
                parts.append(self._eval(node.elt))
            return _union(*parts) if parts else {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                parts.append(self._eval(child))
        return _union(*parts) if parts else {}

    def _set_order_taint(self, node: ast.expr) -> TaintSet:
        if self._suppress:
            return {}
        taint = Taint(
            category="dict-set-order", source="set",
            origin=Hop(self.module.path, node.lineno, "set literal"))
        return {taint.key(): taint}

    def _resolve(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.module.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def _eval_call(self, node: ast.Call) -> TaintSet:
        dotted = self._resolve(node.func)
        arg_sets = [self._eval(arg.value) if isinstance(arg, ast.Starred)
                    else self._eval(arg) for arg in node.args]
        kw_sets = {kw.arg: self._eval(kw.value) for kw in node.keywords}
        receiver = (self._eval(node.func.value)
                    if isinstance(node.func, ast.Attribute) else {})
        everything = _union(receiver, *arg_sets, *kw_sets.values())
        line = node.lineno
        path = self.module.path

        # 1. Sanitizers (before sinks/sources/callees: the injectable
        #    listing helper is also an analyzed function and a spec'd
        #    sanitizer — sanitizer wins).
        if dotted is not None:
            cats = self.specs.sanitizer_categories(dotted)
            if cats is not False:
                if cats is None:
                    return {}
                out: TaintSet = {}
                for taint in everything.values():
                    if taint.category == "param":
                        erased = taint.erase(cats)
                        out.setdefault(erased.key(), erased)
                    elif taint.category not in cats:
                        out.setdefault(taint.key(), taint)
                return out

        # 2. Sinks: every tainted argument is a hit.
        if dotted is not None:
            description = self.specs.sink_description(dotted)
            if description is not None:
                if not self._suppress:
                    hop = Hop(path, line, f"{dotted}() [sink]")
                    for taint in everything.values():
                        hit = SinkHit(sink=dotted, description=description,
                                      hop=hop, col=node.col_offset,
                                      taint=taint)
                        self.hits.setdefault(hit.key(), hit)
                return everything

        # 3. Sources.
        if not self._suppress:
            source_taint = self._source_taint(node, dotted)
            if source_taint is not None:
                return _union(
                    {source_taint.key(): source_taint}, everything)

        # 4. Known callees: splice the callee summary in.
        info = self.graph.resolve_callee(dotted, self.module.module,
                                         self.cls)
        if info is not None and dotted is not None:
            return self._expand_call(node, dotted, info, arg_sets, kw_sets)

        # 5. Unknown call: taint passes through args -> result.
        return everything

    def _source_taint(self, node: ast.Call,
                      dotted: Optional[str]) -> Optional[Taint]:
        if dotted is not None:
            if dotted in SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    return Taint(
                        category="unseeded-rng", source=dotted,
                        origin=Hop(self.module.path, node.lineno,
                                   f"{dotted}() constructed without a seed"
                                   " [source]"))
                return None  # seeded construction is the sanctioned form
            category = self.specs.source_category(dotted)
            if category is not None:
                return Taint(
                    category=category, source=dotted,
                    origin=Hop(self.module.path, node.lineno,
                               f"{dotted}() [source]"))
            if dotted in ("set", "frozenset"):
                return Taint(
                    category="dict-set-order", source=dotted,
                    origin=Hop(self.module.path, node.lineno,
                               f"{dotted}() [source]"))
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in LISTING_METHOD_ATTRS and \
                self.graph.resolve_callee(dotted, self.module.module,
                                          self.cls) is None:
            return Taint(
                category="listing", source=f".{node.func.attr}",
                origin=Hop(self.module.path, node.lineno,
                           f".{node.func.attr}() [source]"))
        return None

    def _expand_call(self, node: ast.Call, dotted: str, info: FunctionInfo,
                     arg_sets: List[TaintSet],
                     kw_sets: Dict[Optional[str], TaintSet]) -> TaintSet:
        summary = self.summaries.get(info.qualname, EMPTY_SUMMARY)
        offset = 1 if dotted.startswith("self.") else 0
        by_param: Dict[int, TaintSet] = {}
        spill: List[TaintSet] = []
        for position, ts in enumerate(arg_sets):
            if isinstance(node.args[position], ast.Starred):
                spill.append(ts)
            else:
                by_param[position + offset] = ts
        for name, ts in kw_sets.items():
            if name is not None and name in info.params:
                by_param[info.params.index(name)] = ts
            else:
                spill.append(ts)
        call_hop = Hop(self.module.path, node.lineno,
                       f"argument to {dotted}()")
        out: TaintSet = _union(*spill) if spill else {}

        for ret in summary.returns:
            if ret.param_index is None:
                bound = ret.extend(
                    Hop(self.module.path, node.lineno,
                        f"returned by {dotted}()"))
                out.setdefault(bound.key(), bound)
                continue
            for taint in by_param.get(ret.param_index, {}).values():
                spliced = self._bind(taint, ret, call_hop)
                if spliced is not None:
                    out.setdefault(spliced.key(), spliced)

        if not self._suppress:
            for hit in summary.hits:
                if hit.taint.param_index is None:
                    continue  # callee-local finding, reported there
                for taint in by_param.get(hit.taint.param_index,
                                          {}).values():
                    spliced = self._bind(taint, hit.taint, call_hop)
                    if spliced is None:
                        continue
                    new_hit = SinkHit(sink=hit.sink,
                                      description=hit.description,
                                      hop=hit.hop, col=hit.col,
                                      taint=spliced)
                    self.hits.setdefault(new_hit.key(), new_hit)
        return out

    def _bind(self, actual: Taint, formal: Taint,
              call_hop: Hop) -> Optional[Taint]:
        """Splice an argument's taint through a parameter pseudo-taint."""
        if actual.category != "param" and actual.category in formal.erased:
            return None  # sanitized somewhere along the callee chain
        hops = actual.hops
        for hop in (call_hop, formal.origin) + formal.hops:
            if len(hops) >= MAX_HOPS:
                break
            hops = hops + (hop,)
        if actual.category == "param":
            return Taint(
                category="param", source=actual.source,
                origin=actual.origin, hops=hops,
                param_index=actual.param_index,
                erased=tuple(sorted(set(actual.erased)
                                    | set(formal.erased))))
        return Taint(category=actual.category, source=actual.source,
                     origin=actual.origin, hops=hops,
                     erased=actual.erased)


# ---------------------------------------------------------------------------
# Findings + the interprocedural driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class FlowFinding:
    """One source→sink flow, with its complete hop trace."""

    path: str          # sink file
    line: int          # sink line
    col: int
    rule: str          # DFxxx category id
    category: str
    source: str        # dotted source name
    sink: str          # resolved sink callee
    message: str
    trace: Tuple[Hop, ...] = field(compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "category": self.category,
            "source": self.source,
            "sink": self.sink,
            "message": self.message,
            "trace": [{"path": hop.path, "line": hop.line,
                       "note": hop.note} for hop in self.trace],
        }

    def render(self) -> str:
        lines = [f"{self.path}:{self.line}:{self.col}: {self.rule} "
                 f"{self.message}"]
        lines += [f"    {hop.render()}" for hop in self.trace]
        return "\n".join(lines)


def _units(graph: ProgramGraph) -> List[Tuple[str, ModuleInfo,
                                              Optional[str],
                                              Sequence[ast.stmt],
                                              Tuple[str, ...], int]]:
    """Every analyzable unit in deterministic (sorted) order."""
    units = []
    for path in sorted(graph.modules):
        info = graph.modules[path]
        units.append((f"{info.module}.<module>", info, None,
                      info.tree.body, (), 1))
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        module = graph.modules.get(fn.path)
        if module is None:  # pragma: no cover - registry from same walk
            continue
        units.append((qual, module, fn.cls, fn.node.body, fn.params,
                      fn.lineno))
    return units


def analyze_graph(graph: ProgramGraph,
                  specs: Optional[FlowSpecs] = None) -> List[FlowFinding]:
    """Run the taint worklist to fixpoint; return sorted findings."""
    specs = specs or FlowSpecs()
    units = _units(graph)
    summaries: Dict[str, Summary] = {qual: EMPTY_SUMMARY
                                     for qual, *_ in units}
    for _ in range(MAX_ROUNDS):
        changed = False
        for qual, module, cls, body, params, def_line in units:
            analyzer = _UnitAnalyzer(graph, specs, summaries, module,
                                     qual, cls, body, params, def_line)
            fresh = analyzer.run()
            if fresh.key() != summaries[qual].key():
                summaries[qual] = fresh
                changed = True
        if not changed:
            break

    findings = set()
    for path in sorted(graph.parse_errors):
        findings.add(FlowFinding(
            path=path, line=1, col=0, rule=FLOW_PARSE_ERROR_RULE,
            category="parse-error", source="", sink="",
            message=f"file {graph.parse_errors[path]}", trace=()))
    for qual in sorted(summaries):
        for hit in summaries[qual].hits:
            taint = hit.taint
            if taint.category == "param":
                continue  # never bound to a real source by any caller
            trace = (taint.origin,) + taint.hops + (hit.hop,)
            findings.add(FlowFinding(
                path=hit.hop.path, line=hit.hop.line, col=hit.col,
                rule=CATEGORY_IDS[taint.category], category=taint.category,
                source=taint.source, sink=hit.sink,
                message=(f"{taint.category} value from {taint.source} "
                         f"({taint.origin.path}:{taint.origin.line}) "
                         f"reaches artifact sink {hit.sink}() "
                         f"[{hit.description}] unsanitized"),
                trace=trace))
    return sorted(findings)


def analyze_paths(paths: Sequence[str],
                  specs: Optional[FlowSpecs] = None) -> List[FlowFinding]:
    """Convenience one-shot: graph + fixpoint over ``paths``."""
    return analyze_graph(build_graph(paths), specs or FlowSpecs())


__all__ = [
    "FLOW_PARSE_ERROR_RULE",
    "FlowFinding",
    "Hop",
    "MAX_HOPS",
    "SinkHit",
    "Summary",
    "Taint",
    "analyze_graph",
    "analyze_paths",
]
