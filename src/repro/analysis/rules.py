"""darpalint rules DL001–DL008: the repo's real nondeterminism hazards.

Every rule encodes one defect class that has (or would have) broken
the serving path's core invariant — *sequential and sharded runs are
byte-identical, because all behaviour is a pure function of the
simulated clock and explicit seeds*:

- **DL001 wall-clock** — ``time.time()``/``perf_counter``/
  ``datetime.now`` etc. read the host clock, which differs per run and
  per worker.  Simulation state must use
  :class:`repro.android.clock.SimulatedClock`; genuinely wall-clock
  needs (user-facing progress, micro-bench timing) go through the
  allowlisted :mod:`repro.wallclock` helper.
- **DL002 unseeded-rng** — the ``random`` module's global instance and
  numpy's legacy global RNG are process-wide hidden state; an unseeded
  ``random.Random()``/``default_rng()`` seeds from the OS.  All
  randomness must flow from explicit seeds.
- **DL003 unordered-iteration** — iterating a ``set``, ``dict.keys()``
  or set-algebra result inside merge/export/serialization functions
  without ``sorted(...)`` makes output depend on hash order: exactly
  the bug class the shard-merge paths are exposed to.  Directory
  listings are DL008's, in every scope.
- **DL004 float-accumulation-in-merge** — ``+=`` on float state inside
  ``merge``/``snapshot`` functions is order-sensitive (float addition
  is not associative); the telemetry merge algebra is all-integer (or
  ``math.fsum``) for this reason.
- **DL005 swallowed-exception** — bare ``except:`` / ``except X: pass``
  masks fault-injection outcomes the resilience layer must observe.
- **DL006 mutable-default-arg** — a shared mutable default leaks state
  across calls (and across fleet sessions within a worker).
- **DL007 undocumented-matmul-reduction** — ``@`` / ``np.dot`` /
  ``np.matmul`` inside merge/reduction scopes hides an order-sensitive
  float sum behind a BLAS call whose internal accumulation order is
  shape- and build-dependent (the kernel work measured grouped GEMMs
  diverging from per-row GEMMs at specific shapes).  Such products
  must carry a ``reduction-order:`` comment stating why the order is
  fixed (or why divergence is acceptable).
- **DL008 unsorted-listing** — ``os.listdir``/``Path.iterdir``/
  ``glob.glob`` enumerate in on-disk order, which differs across hosts
  and runs; unless immediately sorted (or reduced by an
  order-insensitive aggregate), everything derived from the listing
  inherits that ordering.  The sanctioned raw enumeration lives in
  :func:`repro.rundir.injectable_listing`, which sorts
  internally and accepts an injected listing for tests.  This is the
  intraprocedural shadow of darpaflow's ``listing`` taint source.

Rules are deliberately syntactic: no type inference, no data flow.
False positives are handled by ``# darpalint: disable=RULE`` inline
suppressions or ``[tool.darpalint.allow]`` path allowlists — both of
which require a human to leave a justification behind.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.analysis.engine import FileContext, Finding


class Rule:
    """Base class: one defect pattern, one stable id."""

    id: str = "DL000"
    name: str = "abstract"
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""
    hint: str = ""

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, ctx: FileContext,
                message: str) -> Finding:
        return Finding(path=ctx.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), rule=self.id,
                       message=message, hint=self.hint)


def _in_scope(ctx: FileContext, patterns: Sequence[str]) -> bool:
    """True when any enclosing function name matches a pattern."""
    return any(fnmatchcase(name, pattern)
               for name in ctx.scope for pattern in patterns)


# ---------------------------------------------------------------------------
# DL001 — wall clock
# ---------------------------------------------------------------------------

#: Canonical dotted names that read the host clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockRule(Rule):
    id = "DL001"
    name = "wall-clock"
    summary = "host wall-clock read outside repro.wallclock"
    hint = ("use the SimulatedClock for simulation state, or "
            "repro.wallclock for user-facing progress timing")

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        dotted = ctx.resolve(node.func)
        if dotted in WALL_CLOCK_CALLS:
            yield self.finding(
                node, ctx, f"call to wall clock {dotted}() — behaviour "
                           "must be a pure function of the simulated "
                           "clock and explicit seeds")


# ---------------------------------------------------------------------------
# DL002 — unseeded RNG
# ---------------------------------------------------------------------------

#: Draw/shuffle functions of the ``random`` module's *global* instance.
GLOBAL_RANDOM_FNS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "random_bytes", "randbytes", "getrandbits",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "weibullvariate",
    "vonmisesvariate", "triangular", "binomialvariate", "seed",
})

#: Legacy numpy global-RNG entry points (``np.random.rand`` et al.).
NUMPY_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "lognormal", "exponential", "poisson",
    "binomial", "beta", "gamma", "bytes", "seed",
})

#: Constructors that must be handed an explicit seed argument.
SEEDED_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
})


class UnseededRngRule(Rule):
    id = "DL002"
    name = "unseeded-rng"
    summary = "process-global or unseeded RNG"
    hint = ("derive randomness from an explicit seed: "
            "np.random.default_rng(seed) or random.Random(seed)")

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        dotted = ctx.resolve(node.func)
        if dotted is None:
            return
        if dotted in SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                yield self.finding(
                    node, ctx, f"{dotted}() constructed without a seed — "
                               "it seeds itself from the OS")
            return
        head, _, tail = dotted.rpartition(".")
        if head == "random" and tail in GLOBAL_RANDOM_FNS:
            yield self.finding(
                node, ctx, f"{dotted}() uses the process-global RNG — "
                           "hidden state shared across the whole run")
        elif head == "numpy.random" and tail in NUMPY_GLOBAL_FNS:
            yield self.finding(
                node, ctx, f"{dotted}() uses numpy's legacy global RNG — "
                           "hidden state shared across the whole run")


# ---------------------------------------------------------------------------
# DL003 — unordered iteration in merge/export paths
# ---------------------------------------------------------------------------

#: Calls producing hash-ordered iterables.  Filesystem listings are
#: left to DL008, which reports every unsorted one in every scope.
UNORDERED_PRODUCERS = frozenset({"set", "frozenset"})

#: Callees that erase iteration order, making the operand's own order
#: irrelevant (``sorted(x)`` is the canonical fix).
ORDER_ERASERS = frozenset({"sorted", "set", "frozenset"})


def _is_unordered(expr: ast.AST, ctx: FileContext) -> Optional[str]:
    """Describe why ``expr`` iterates in unordered fashion, or None."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(expr, ast.Call):
        dotted = ctx.resolve(expr.func)
        if dotted in UNORDERED_PRODUCERS:
            return f"{dotted}(...)"
        if isinstance(expr.func, ast.Attribute) and \
                expr.func.attr == "keys" and not expr.args:
            return ".keys() without sorted(...)"
        return None
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        # Set algebra: flag when either operand is itself unordered
        # (``set(a) - set(b)``); plain ``a - b`` on names stays quiet.
        for side in (expr.left, expr.right):
            reason = _is_unordered(side, ctx)
            if reason is not None:
                return f"set algebra over {reason}"
    return None


class UnorderedIterationRule(Rule):
    id = "DL003"
    name = "unordered-iteration"
    summary = "unordered iteration inside merge/export scopes"
    hint = "wrap the iterable in sorted(...) so merge output is stable"

    def _iter_exprs(self, node: ast.AST) -> Iterable[ast.AST]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                yield comp.iter

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx, ctx.config.dl003_functions):
            return
        order_erased = any(
            callee.rpartition(".")[2] in ORDER_ERASERS
            for callee in ctx.enclosing_calls())
        if order_erased:
            return
        for expr in self._iter_exprs(node):
            reason = _is_unordered(expr, ctx)
            if reason is not None:
                yield self.finding(
                    expr, ctx,
                    f"iterating {reason} inside "
                    f"{ctx.scope_name() or '<module>'}() — output depends "
                    "on hash/filesystem order, breaking byte-identical "
                    "shard merges")


# ---------------------------------------------------------------------------
# DL004 — float accumulation in merge/snapshot functions
# ---------------------------------------------------------------------------

def _is_floaty(expr: ast.AST) -> bool:
    """True when ``expr`` certainly produces a float somewhere."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                and sub.func.id == "float":
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
    return False


def _expr_fingerprint(node: ast.AST) -> Optional[Tuple]:
    """Structural identity of a simple lvalue, load/store agnostic."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute):
        base = _expr_fingerprint(node.value)
        return None if base is None else ("attr", base, node.attr)
    if isinstance(node, ast.Subscript):
        base = _expr_fingerprint(node.value)
        key = _expr_fingerprint(node.slice)
        if base is None or key is None:
            return None
        return ("item", base, key)
    if isinstance(node, ast.Constant):
        return ("const", repr(node.value))
    return None


def _reads_target(value: ast.AST, target: ast.AST) -> bool:
    fp = _expr_fingerprint(target)
    if fp is None:
        return False
    return any(_expr_fingerprint(sub) == fp for sub in ast.walk(value))


class FloatAccumulationRule(Rule):
    id = "DL004"
    name = "float-accumulation-in-merge"
    summary = "order-sensitive float accumulation in merge scopes"
    hint = ("keep merge state integer (e.g. micros) or use math.fsum "
            "over the collected values — float += is order-sensitive")

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx, ctx.config.dl004_functions):
            return
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if _is_floaty(node.value):
                yield self.finding(
                    node, ctx,
                    f"float += inside {ctx.scope_name()}() — float "
                    "addition is not associative, so merge order changes "
                    "the result")
        elif isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.BinOp) and \
                isinstance(node.value.op, ast.Add) and \
                _is_floaty(node.value):
            for target in node.targets:
                if _reads_target(node.value, target):
                    yield self.finding(
                        node, ctx,
                        f"float accumulation into {ast.unparse(target)} "
                        f"inside {ctx.scope_name()}() — float addition is "
                        "not associative, so merge order changes the result")
                    break


# ---------------------------------------------------------------------------
# DL005 — swallowed exceptions
# ---------------------------------------------------------------------------

class SwallowedExceptionRule(Rule):
    id = "DL005"
    name = "swallowed-exception"
    summary = "bare except / except-pass hides fault outcomes"
    hint = ("catch specific exceptions and record the outcome — the "
            "fault-injection layer must be able to observe failures")

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            yield self.finding(
                node, ctx, "bare except: catches everything, including "
                           "injected faults and KeyboardInterrupt")
            return
        if all(isinstance(stmt, ast.Pass) or
               (isinstance(stmt, ast.Expr) and
                isinstance(stmt.value, ast.Constant) and
                stmt.value.value is Ellipsis)
               for stmt in node.body):
            yield self.finding(
                node, ctx, "except-with-pass silently swallows the "
                           "failure — fault outcomes must stay observable")


# ---------------------------------------------------------------------------
# DL006 — mutable default argument
# ---------------------------------------------------------------------------

#: Constructor calls that build a fresh mutable container.
MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque",
})


class MutableDefaultRule(Rule):
    id = "DL006"
    name = "mutable-default-arg"
    summary = "mutable default argument shared across calls"
    hint = "default to None and create the container inside the body"

    def _is_mutable(self, expr: ast.AST, ctx: FileContext) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(expr, ast.Call):
            return ctx.resolve(expr.func) in MUTABLE_CONSTRUCTORS
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            return
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        name = getattr(node, "name", "<lambda>")
        for default in defaults:
            if self._is_mutable(default, ctx):
                yield self.finding(
                    default, ctx,
                    f"mutable default argument in {name}() — the "
                    "container is shared across every call")


# ---------------------------------------------------------------------------
# DL007 — undocumented matmul reduction in merge/reduction scopes
# ---------------------------------------------------------------------------

#: Dotted callables that reduce through a BLAS dot product.
MATMUL_CALLS = frozenset({
    "numpy.dot", "numpy.matmul", "numpy.vdot", "numpy.inner",
    "numpy.einsum", "numpy.tensordot",
})

#: Marker comment documenting a product's accumulation order.  Same or
#: previous line, e.g. ``# reduction-order: fixed K, never split``.
REDUCTION_ORDER_MARKER = "reduction-order:"


class UndocumentedMatmulReductionRule(Rule):
    id = "DL007"
    name = "undocumented-matmul-reduction"
    summary = "undocumented BLAS reduction in merge scopes"
    hint = ("a BLAS product is a float reduction with shape-dependent "
            "internal order; add a '# reduction-order: ...' comment "
            "stating why the accumulation order is fixed here")

    def _documented(self, node: ast.AST, ctx: FileContext) -> bool:
        lineno = getattr(node, "lineno", 1)
        for line_index in (lineno - 1, lineno - 2):
            if 0 <= line_index < len(ctx.source_lines) and \
                    REDUCTION_ORDER_MARKER in ctx.source_lines[line_index]:
                return True
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx, ctx.config.dl007_functions):
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            what = "the @ operator"
        elif isinstance(node, ast.Call):
            dotted = ctx.resolve(node.func)
            if dotted not in MATMUL_CALLS:
                return
            what = f"{dotted}()"
        else:
            return
        if self._documented(node, ctx):
            return
        yield self.finding(
            node, ctx,
            f"{what} inside {ctx.scope_name() or '<module>'}() reduces "
            "floats in BLAS-internal order — document it with a "
            "'reduction-order:' comment or hoist it out of the merge path")


# ---------------------------------------------------------------------------
# DL008 — unsorted filesystem enumeration
# ---------------------------------------------------------------------------

#: Dotted callables that enumerate a directory in filesystem order.
LISTING_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

#: ``pathlib.Path`` methods that enumerate in filesystem order.  The
#: receiver is usually untypeable syntactically, so any ``.iterdir()``
#: counts — the method names are specific enough in practice.
LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Enclosing callees that make enumeration order irrelevant: sorting,
#: set construction, and order-insensitive aggregates.
LISTING_ORDER_ERASERS = frozenset({
    "sorted", "set", "frozenset", "len", "min", "max", "sum", "any",
    "all",
})

#: Functions allowed to touch the raw listing: they sort internally
#: and accept an injected listing for tests (repro.rundir).
LISTING_HELPERS = frozenset({"injectable_listing"})


class UnsortedListingRule(Rule):
    id = "DL008"
    name = "unsorted-listing"
    summary = "unsorted filesystem enumeration"
    hint = ("wrap the enumeration in sorted(...), or go through "
            "repro.rundir.injectable_listing — filesystem "
            "order differs across hosts and runs")

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        if any(name in LISTING_HELPERS for name in ctx.scope):
            return
        dotted = ctx.resolve(node.func)
        if dotted in LISTING_CALLS:
            what = f"{dotted}()"
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr in LISTING_METHODS and \
                (dotted is None or
                 dotted.partition(".")[0] not in ("glob", "os")):
            what = f".{node.func.attr}()"
        else:
            return
        if any(callee.rpartition(".")[2] in LISTING_ORDER_ERASERS
               for callee in ctx.enclosing_calls()):
            return
        yield self.finding(
            node, ctx,
            f"{what} enumerates the filesystem in on-disk order — "
            "anything derived from it inherits a per-host, per-run "
            "ordering")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_RULES: Tuple[type, ...] = (
    WallClockRule,
    UnseededRngRule,
    UnorderedIterationRule,
    FloatAccumulationRule,
    SwallowedExceptionRule,
    MutableDefaultRule,
    UndocumentedMatmulReductionRule,
    UnsortedListingRule,
)

RULES_BY_ID: Dict[str, type] = {cls.id: cls for cls in ALL_RULES}


def default_rules() -> Tuple[Rule, ...]:
    """One fresh instance of every registered rule, in id order."""
    return tuple(cls() for cls in ALL_RULES)


def rules_for_ids(ids: Iterable[str]) -> Tuple[Rule, ...]:
    """Instances for ``ids`` (case-insensitive); unknown ids raise."""
    out = []
    for rule_id in ids:
        cls = RULES_BY_ID.get(rule_id.strip().upper())
        if cls is None:
            raise KeyError(rule_id)
        out.append(cls())
    return tuple(out)


__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "WallClockRule",
    "UnseededRngRule",
    "UnorderedIterationRule",
    "FloatAccumulationRule",
    "SwallowedExceptionRule",
    "MutableDefaultRule",
    "UndocumentedMatmulReductionRule",
    "UnsortedListingRule",
    "default_rules",
    "rules_for_ids",
]
