"""Interprocedural nondeterminism taint analysis.

The determinism rules of PR 3 (``no-unseeded-rng``, ``no-wall-clock``)
ban *source* call names; nothing stopped a host-time or RNG value,
once legitimately created, from flowing into the virtual-time domain
or the event stream three assignments and two calls later. This module
closes that gap with a forward taint lattice over the existing CFG /
dataflow / call-graph stack:

* **Sources** — host-time reads (``time.perf_counter`` and friends,
  the ``repro.serve.clock.now()`` seam), RNG draws not derived from a
  seeded ``Generator``, ``os.environ`` reads, ``id()``, and set
  iteration order (dicts are insertion-ordered on the supported
  CPythons and deliberately exempt).
* **Propagation** — assignments (tuple unpacking included), augmented
  assignment, arithmetic/boolean/comparison/f-string expressions,
  container literals, attribute stores (field-sensitive: tainting
  ``a.b`` does not taint ``a``), loop/with bindings, walrus targets,
  and call sites. Unknown calls propagate argument taint to their
  result (may-analysis: imprecision errs toward reporting).
* **Sanitizers** — seeded generator construction
  (``default_rng(seed)`` / ``random.Random(seed)`` carry only the
  *seed's* taint) and order-insensitive folds over sets (``sorted``,
  ``len``, ``min``, ``max``, ``sum`` strip ``iter-order``).
* **Interprocedural summaries** — context-insensitive per-function
  taint signatures (:class:`FnTaint`: source kinds the return value
  may carry, plus which parameters flow into it), resolved on demand
  through the project call graph by the shared
  :class:`~repro.analysis.project.Summaries` engine (memoised, exact
  on recursion, independent of query order). Bound-method dispatch
  (``self.helper()``) resolves through the class-aware call graph.

Every taint fact carries a *chain* of :class:`~repro.analysis.findings
.FlowStep` hops (``time.perf_counter -> t0 -> solve_ms``) so the rules
in :mod:`repro.analysis.taintrules` can print the full propagation
path and export it as SARIF ``codeFlows``.

Two evaluation modes share one expression evaluator:

* :func:`function_summary` — flow-*insensitive* (pure may, no kills),
  cheap enough to run on demand across the whole call graph;
* :class:`TaintFlow` — a flow-*sensitive*
  :class:`~repro.analysis.dataflow.ForwardAnalysis` used by the
  reporting rules, so rebinding a name to a seeded generator really
  does sanitize the paths below it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .base import FileContext, ProjectContext, dotted_text
from .cfg import (
    CFG,
    NESTED_SCOPES,
    FunctionNode,
    Unit,
    WithExit,
    walk_function_body,
)
from .dataflow import MayUnion
from .findings import FlowStep
from .project import (
    CallTarget,
    FunctionEntry,
    Summaries,
    args_by_param,
    defined_functions,
    function_info,
)

__all__ = [
    "HOST_TIME",
    "RNG",
    "ENV",
    "ID_ADDR",
    "ITER_ORDER",
    "TAINT_KINDS",
    "FnTaint",
    "EMPTY_SUMMARY",
    "SummaryProvider",
    "ProjectSummaries",
    "LocalSummaries",
    "TaintEngine",
    "TaintFlow",
    "project_summaries",
    "summaries_for",
    "class_attr_taints",
]

# -- taint kinds -------------------------------------------------------------

HOST_TIME = "host-time"
RNG = "rng"
ENV = "env"
ID_ADDR = "id"
ITER_ORDER = "iter-order"

#: real (reportable) taint kinds; summaries additionally use the
#: pseudo-kind ``param:<i>`` to mark parameter-to-return flow
TAINT_KINDS = (HOST_TIME, RNG, ENV, ID_ADDR, ITER_ORDER)

_PARAM_PREFIX = "param:"

#: one taint chain: source hop first, sink-ward hops appended
Chain = Tuple[FlowStep, ...]
#: taint of one value: kind -> first-seen chain
TaintMap = Dict[str, Chain]
#: resolves a (possibly dotted) written name to its taint
Lookup = Callable[[str], TaintMap]

_MAX_CHAIN = 8

# -- source / sanitizer tables -----------------------------------------------

#: host-clock reads, resolved dotted names (seam spellings included)
HOST_TIME_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "repro.serve.clock.now",
        "serve.clock.now",
        "clock.now",
    }
)

#: generator factories that are deterministic *iff* seeded: called with
#: arguments they carry only the seed's taint, argless they are RNG
_SEEDED_FACTORIES = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
    }
)

#: ``random`` module attributes that draw nothing
_RANDOM_NO_DRAW = frozenset({"seed", "getstate", "setstate"})

#: builtins whose result is order-insensitive over an unordered input:
#: they strip ``iter-order`` while keeping every other kind
_ITER_SANITIZERS = frozenset({"sorted", "len", "min", "max", "sum"})


def _own_stmts(func: FunctionNode) -> List[ast.stmt]:
    """Source-ordered statements of a function's own body."""
    return [
        node
        for node in walk_function_body(func)
        if isinstance(node, ast.stmt)
    ]


def _unit_expr_roots(node: ast.stmt) -> List[ast.expr]:
    """The expressions a CFG unit itself evaluates.

    Compound statements appear as terminator units with their bodies
    lowered into separate blocks, so only the *header* expression
    (loop iterable, branch test, context manager) belongs to the unit;
    simple statements own all their child expressions.
    """
    if isinstance(node, (ast.If, ast.While)):
        return [node.test]
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    if isinstance(node, ast.Try):
        return []
    return [
        child
        for child in ast.iter_child_nodes(node)
        if isinstance(child, ast.expr)
    ]


def _merge(into: TaintMap, add: TaintMap) -> None:
    """First-wins union of two taint maps."""
    for kind, chain in add.items():
        into.setdefault(kind, chain)


def _ms_sanctioned(name: str, kind: str) -> bool:
    """Whether binding ``kind`` into ``name`` is sanctioned.

    ``*_ms`` names are the repo's documented host-milliseconds
    convention (``build_ms``, ``solve_ms``, ``meta["build_ms"]``):
    host-clock cost is *supposed* to live there, so host-time taint
    stops at the boundary. Mixing an ``_ms`` value back into virtual
    ``_s`` arithmetic is a unit error the unit-consistency rule
    catches independently.
    """
    return kind == HOST_TIME and name.rsplit(".", 1)[-1].endswith("_ms")


def _extend(chain: Chain, step: FlowStep) -> Chain:
    """Append one hop, de-duplicating and capping the chain length."""
    if chain and chain[-1].label == step.label:
        return chain
    if len(chain) >= _MAX_CHAIN:
        chain = chain[: _MAX_CHAIN - 1]
    return (*chain, step)


# -- per-function summaries --------------------------------------------------


@dataclass(frozen=True)
class FnTaint:
    """Context-insensitive taint signature of one function.

    ``returns`` maps each source kind the return value may carry to a
    representative chain; ``param_flow`` lists the parameter indices
    (``self`` included, position 0) whose taint may reach the return.
    """

    returns: Tuple[Tuple[str, Chain], ...] = ()
    param_flow: FrozenSet[int] = frozenset()

    def returns_map(self) -> TaintMap:
        return dict(self.returns)


EMPTY_SUMMARY = FnTaint()


def _taint_shape(summary: FnTaint) -> object:
    """The lattice part of a summary: kinds and parameter flow (the
    representative chains lengthen round a cycle — not convergence)."""
    return (frozenset(k for k, _ in summary.returns), summary.param_flow)


class SummaryProvider:
    """On-demand :class:`FnTaint` store over one function table.

    Summaries are computed lazily when a call site first asks for one
    (only the call-graph slice reachable from a reporting rule's scope
    is ever summarized) by a :class:`~repro.analysis.project.Summaries`
    engine: every key's summary is the least fixed point over the call
    graph — recursion included — whatever was asked first. Subclasses
    supply the function table and the call resolver, nothing else.
    """

    def __init__(self) -> None:
        self._summaries: Summaries[FnTaint] = Summaries(
            self._infer, EMPTY_SUMMARY, _taint_shape
        )

    def entry(self, key: str) -> Optional[FunctionEntry]:
        raise NotImplementedError

    def resolve_call(
        self,
        ctx: FileContext,
        owner_class: Optional[str],
        call: ast.Call,
    ) -> Optional[CallTarget]:
        """The summarizable callee behind a call site, if any."""
        raise NotImplementedError

    def _infer(self, key: str) -> FnTaint:
        entry = self.entry(key)
        if entry is None:
            return EMPTY_SUMMARY
        return function_summary(*entry, self)

    def get(self, key: str) -> FnTaint:
        return self._summaries.get(key)


class ProjectSummaries(SummaryProvider):
    """Summary provider over the whole-program call graph."""

    def __init__(self, project: ProjectContext) -> None:
        super().__init__()
        self._graph = project.graph

    def entry(self, key: str) -> Optional[FunctionEntry]:
        if self._graph is None:
            return None
        return self._graph.functions().get(key)

    def resolve_call(
        self,
        ctx: FileContext,
        owner_class: Optional[str],
        call: ast.Call,
    ) -> Optional[CallTarget]:
        if self._graph is None:
            return None
        return self._graph.resolve_call(ctx, owner_class, call)


class LocalSummaries(SummaryProvider):
    """Summary provider for single-file lints (no project graph).

    Resolves bare-name calls to module-level functions and
    ``self.x()`` / ``cls.x()`` to methods of the enclosing class, so
    fixture runs still see helper-return laundering.
    """

    def __init__(self, ctx: FileContext) -> None:
        super().__init__()
        self._local: Dict[str, FunctionEntry] = {
            key: (ctx, owner, func)
            for key, owner, func in defined_functions(ctx.tree)
        }

    def entry(self, key: str) -> Optional[FunctionEntry]:
        return self._local.get(key)

    def resolve_call(
        self,
        ctx: FileContext,
        owner_class: Optional[str],
        call: ast.Call,
    ) -> Optional[CallTarget]:
        raw = dotted_text(call.func)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        bound = head in ("self", "cls") and owner_class is not None
        key = f"{owner_class}.{rest}" if bound else raw
        entry = self._local.get(key)
        if entry is None:
            return None
        return CallTarget(key, function_info(entry[2]), bound)


def project_summaries(project: ProjectContext) -> SummaryProvider:
    """The shared (cached) summary provider of a whole-repo run."""
    return project.memo(
        "taint-summaries", lambda: ProjectSummaries(project)
    )


def summaries_for(ctx: FileContext) -> SummaryProvider:
    """The summary provider for a file: project-wide when the file was
    parsed as part of a repo run (cached on the project context, so
    every rule and file shares one memo), single-file otherwise."""
    project = ctx.project
    if project is None or project.graph is None:
        return LocalSummaries(ctx)
    return project_summaries(project)


# -- the expression evaluator ------------------------------------------------


class TaintEngine:
    """Evaluates the taint of expressions in one function's context."""

    def __init__(
        self,
        ctx: FileContext,
        owner_class: Optional[str] = None,
        summaries: Optional[SummaryProvider] = None,
    ) -> None:
        self.ctx = ctx
        self.owner_class = owner_class
        self.summaries = (
            summaries if summaries is not None else summaries_for(ctx)
        )

    # -- helpers -----------------------------------------------------------
    def _step(self, label: str, line: int) -> FlowStep:
        return FlowStep(label=label, path=self.ctx.module, line=line)

    def _source(self, kind: str, label: str, line: int) -> TaintMap:
        return {kind: (self._step(label, line),)}

    # -- expressions -------------------------------------------------------
    def expr_taint(self, expr: ast.AST, lookup: Lookup) -> TaintMap:
        """Taint of one expression under ``lookup`` for free names."""
        if isinstance(expr, ast.Constant):
            return {}
        if isinstance(expr, (ast.Name, ast.Attribute)):
            return self._name_taint(expr, lookup)
        if isinstance(expr, ast.Call):
            return self.call_taint(expr, lookup)
        if isinstance(expr, ast.Await):
            return self.expr_taint(expr.value, lookup)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            out = self._union_children(expr, lookup)
            _merge(
                out,
                self._source(
                    ITER_ORDER, "set()", getattr(expr, "lineno", 0)
                ),
            )
            return out
        if isinstance(expr, ast.Subscript):
            out = self.expr_taint(expr.value, lookup)
            _merge(out, self.expr_taint(expr.slice, lookup))
            return out
        # BinOp / BoolOp / Compare / UnaryOp / IfExp / JoinedStr /
        # containers / comprehensions / starred / slices: union of
        # every contained expression (may-analysis)
        return self._union_children(expr, lookup)

    def _union_children(self, node: ast.AST, lookup: Lookup) -> TaintMap:
        out: TaintMap = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, NESTED_SCOPES):
                continue
            if isinstance(child, ast.expr):
                _merge(out, self.expr_taint(child, lookup))
            else:
                _merge(out, self._union_children(child, lookup))
        return out

    def _name_taint(self, expr: ast.AST, lookup: Lookup) -> TaintMap:
        resolved = self.ctx.dotted_name(expr)
        line = getattr(expr, "lineno", 0)
        if resolved == "os.environ":
            return self._source(ENV, "os.environ", line)
        text = dotted_text(expr)
        if text is None:
            # attribute of a computed base: taint of the base
            if isinstance(expr, ast.Attribute):
                return self.expr_taint(expr.value, lookup)
            return {}
        # longest-prefix match: ``a.b.c`` is tainted when ``a.b`` is
        # (field-sensitivity: a store to ``a.b`` never taints ``a``)
        out: TaintMap = {}
        parts = text.split(".")
        for i in range(len(parts), 0, -1):
            hit = lookup(".".join(parts[:i]))
            if hit:
                _merge(out, hit)
        return out

    # -- calls -------------------------------------------------------------
    def _args_union(
        self, call: ast.Call, lookup: Lookup
    ) -> TaintMap:
        out: TaintMap = {}
        for arg in call.args:
            _merge(out, self.expr_taint(arg, lookup))
        for kw in call.keywords:
            _merge(out, self.expr_taint(kw.value, lookup))
        return out

    def call_taint(self, call: ast.Call, lookup: Lookup) -> TaintMap:
        resolved = self.ctx.dotted_name(call.func) or ""
        line = call.lineno
        if resolved in HOST_TIME_CALLS:
            return self._source(HOST_TIME, resolved, line)
        if resolved == "id":
            return self._source(ID_ADDR, "id()", line)
        if resolved in ("set", "frozenset"):
            out = self._args_union(call, lookup)
            _merge(
                out, self._source(ITER_ORDER, f"{resolved}()", line)
            )
            return out
        if resolved in _ITER_SANITIZERS:
            out = self._args_union(call, lookup)
            out.pop(ITER_ORDER, None)
            return out
        if resolved in _SEEDED_FACTORIES:
            if not call.args and not call.keywords:
                return self._source(RNG, f"{resolved}()", line)
            # seeded: deterministic iff the seed is — carry only the
            # seed's taint (the sanitization the rules rely on)
            return self._args_union(call, lookup)
        if resolved in ("os.getenv", "os.environ.get"):
            return self._source(ENV, resolved, line)
        if resolved.startswith("random.") and resolved.count(".") == 1:
            tail = resolved.split(".", 1)[1]
            if tail in _RANDOM_NO_DRAW:
                return {}
            return self._source(RNG, resolved, line)
        if resolved.startswith("numpy.random."):
            # legacy global-state draw (Generator-era names fell into
            # the seeded-factory branch above)
            return self._source(RNG, resolved, line)
        # a method on a tainted receiver yields a tainted value
        # (rng.normal(), tainted_dt.total_seconds(), s.pop() ...)
        if isinstance(call.func, ast.Attribute):
            base = self.expr_taint(call.func.value, lookup)
            if base:
                out = dict(base)
                _merge(out, self._args_union(call, lookup))
                return out
        # project/local callee: apply its taint signature
        target = self.summaries.resolve_call(
            self.ctx, self.owner_class, call
        )
        if target is not None:
            summary = self.summaries.get(target.key)
            out = summary.returns_map()
            if summary.param_flow:
                exprs = args_by_param(call, target)
                hop = self._step(f"{target.fn.name}()", line)
                for idx in sorted(summary.param_flow):
                    arg = exprs.get(idx)
                    if arg is None:
                        continue
                    flowed = self.expr_taint(arg, lookup)
                    for kind, chain in flowed.items():
                        out.setdefault(kind, _extend(chain, hop))
            return out
        # unknown callee: argument taint may flow to the result
        return self._args_union(call, lookup)

    # -- assignment effects ------------------------------------------------
    def unit_effects(
        self, unit: Unit, lookup: Lookup
    ) -> Tuple[Set[str], Dict[str, TaintMap]]:
        """(killed names, new bindings) of executing one unit."""
        killed: Set[str] = set()
        binds: Dict[str, TaintMap] = {}
        if isinstance(unit, WithExit):
            return killed, binds

        def bind(name: str, taint: TaintMap, line: int) -> None:
            if not taint:
                return
            entry = binds.setdefault(name, {})
            step = self._step(name, line)
            for kind, chain in taint.items():
                if _ms_sanctioned(name, kind):
                    continue
                entry.setdefault(kind, _extend(chain, step))

        def bind_target(
            target: ast.expr, taint: TaintMap, *, kill: bool
        ) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    inner = elt.value if isinstance(
                        elt, ast.Starred
                    ) else elt
                    bind_target(inner, taint, kill=kill)
                return
            if isinstance(target, ast.Subscript):
                # partial update: the container may now hold taint,
                # but old contents survive — bind without killing
                text = dotted_text(target.value)
                if text is not None:
                    bind(text, taint, target.lineno)
                return
            text = dotted_text(target)
            if text is None:
                return
            if kill:
                killed.add(text)
            bind(text, taint, target.lineno)

        def unpack(
            targets: Sequence[ast.expr], value: ast.expr, *, kill: bool
        ) -> None:
            for target in targets:
                if (
                    isinstance(target, (ast.Tuple, ast.List))
                    and isinstance(value, (ast.Tuple, ast.List))
                    and len(target.elts) == len(value.elts)
                    and not any(
                        isinstance(e, ast.Starred) for e in target.elts
                    )
                ):
                    for t, v in zip(target.elts, value.elts):
                        unpack([t], v, kill=kill)
                else:
                    bind_target(
                        target,
                        self.expr_taint(value, lookup),
                        kill=kill,
                    )

        node = unit
        if isinstance(node, ast.Assign):
            unpack(node.targets, node.value, kill=True)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            unpack([node.target], node.value, kill=True)
        elif isinstance(node, ast.AugAssign):
            taint = self.expr_taint(node.value, lookup)
            bind_target(node.target, taint, kill=False)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            taint = self.expr_taint(node.iter, lookup)
            bind_target(node.target, taint, kill=True)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind_target(
                        item.optional_vars,
                        self.expr_taint(item.context_expr, lookup),
                        kill=True,
                    )
        # walrus bindings in the expressions this unit evaluates (a
        # terminator's body belongs to other units — binding it here
        # would leak into the untaken branch)
        for root in _unit_expr_roots(node):
            for sub in walk_function_body(root):
                if isinstance(sub, ast.NamedExpr):
                    bind_target(
                        sub.target,
                        self.expr_taint(sub.value, lookup),
                        kill=True,
                    )
        return killed, binds


# -- flow-insensitive summary computation ------------------------------------


def function_summary(
    ctx: FileContext,
    owner_class: Optional[str],
    func: FunctionNode,
    summaries: SummaryProvider,
) -> FnTaint:
    """Flow-insensitive taint signature of one function.

    Pure may-analysis: bindings accumulate (no kills), statements are
    swept twice so simple loops converge, and every ``return``
    expression contributes to the signature. Parameters are seeded
    with ``param:<i>`` pseudo-kinds so parameter-to-return laundering
    surfaces in ``param_flow``.
    """
    engine = TaintEngine(ctx, owner_class, summaries)
    env: Dict[str, TaintMap] = {}
    for i, name in enumerate(function_info(func).params):
        env[name] = {
            f"{_PARAM_PREFIX}{i}": (
                FlowStep(name, ctx.module, func.lineno),
            )
        }

    def lookup(name: str) -> TaintMap:
        return env.get(name, {})

    stmts = _own_stmts(func)
    for _sweep in range(2):
        changed = False
        for stmt in stmts:
            _killed, binds = engine.unit_effects(stmt, lookup)
            for name, taint in binds.items():
                entry = env.setdefault(name, {})
                for kind, chain in taint.items():
                    if kind not in entry:
                        entry[kind] = chain
                        changed = True
        if not changed:
            break

    result: TaintMap = {}
    for stmt in stmts:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            _merge(result, engine.expr_taint(stmt.value, lookup))

    returns = tuple(
        sorted(
            (kind, chain)
            for kind, chain in result.items()
            if not kind.startswith(_PARAM_PREFIX)
            # a function *named* `*_ms` returns host milliseconds by
            # convention — sanctioned like an `_ms` binding
            and not _ms_sanctioned(func.name, kind)
        )
    )
    param_flow = frozenset(
        int(kind[len(_PARAM_PREFIX) :])
        for kind in result
        if kind.startswith(_PARAM_PREFIX)
    )
    if not returns and not param_flow:
        return EMPTY_SUMMARY
    return FnTaint(returns=returns, param_flow=param_flow)


# -- flow-sensitive analysis (reporting precision) ---------------------------

#: one fact: (written dotted name, taint kind)
TaintFact = FrozenSet[Tuple[str, str]]


class TaintFlow(MayUnion[Tuple[str, str]]):
    """Flow-sensitive taint over one function's CFG.

    Facts are ``(name, kind)`` pairs; chains live in a first-wins side
    memo (:attr:`chains`) so lattice convergence is value-based while
    findings still print a deterministic propagation path. Rebinding a
    name kills its taint — assigning a seeded generator over an
    unseeded one really sanitizes downstream reads.
    """

    def __init__(
        self,
        engine: TaintEngine,
        seed_names: Optional[Dict[str, TaintMap]] = None,
    ) -> None:
        self.engine = engine
        self.chains: Dict[Tuple[str, str], Chain] = {}
        self._seed: TaintFact = frozenset()
        seeds = dict(seed_names or {})
        if seeds:
            facts: Set[Tuple[str, str]] = set()
            for name, taint in seeds.items():
                for kind, chain in taint.items():
                    facts.add((name, kind))
                    self.chains.setdefault((name, kind), chain)
            self._seed = frozenset(facts)

    def initial(self, cfg: CFG) -> TaintFact:
        return self._seed

    def lookup_for(self, fact: TaintFact) -> Lookup:
        """A name-taint resolver over one program point's fact."""
        env: Dict[str, TaintMap] = {}
        for name, kind in fact:
            env.setdefault(name, {})[kind] = self.chains.get(
                (name, kind), (FlowStep(name, self.engine.ctx.module),)
            )

        def lookup(name: str) -> TaintMap:
            return env.get(name, {})

        return lookup

    def transfer(self, fact: TaintFact, unit: Unit) -> TaintFact:
        if isinstance(unit, WithExit):
            return fact
        killed, binds = self.engine.unit_effects(
            unit, self.lookup_for(fact)
        )
        out = {(n, k) for (n, k) in fact if n not in killed}
        for name, taint in binds.items():
            for kind, chain in taint.items():
                out.add((name, kind))
                self.chains.setdefault((name, kind), chain)
        return frozenset(out)


def class_attr_taints(
    ctx: FileContext,
    class_node: ast.ClassDef,
    summaries: Optional[SummaryProvider] = None,
) -> Dict[str, TaintMap]:
    """``self.<attr>`` bindings of a class that carry taint.

    Flow-insensitive sweep over every method body: an assignment like
    ``self._t0 = time.perf_counter()`` (in ``start()``) taints reads
    of ``self._t0`` in *other* methods, which is exactly how profiler
    state escapes. Right-hand sides are evaluated with sources and
    callee summaries only (locals unresolved), keeping the pass cheap.
    """
    engine = TaintEngine(ctx, class_node.name, summaries)

    def empty(_name: str) -> TaintMap:
        return {}

    out: Dict[str, TaintMap] = {}
    for method in class_node.body:
        if not isinstance(
            method, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        for stmt in _own_stmts(method):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None:
                continue
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            texts = [
                t
                for t in (dotted_text(tgt) for tgt in targets)
                if t is not None and t.startswith("self.")
            ]
            if not texts:
                continue
            taint = engine.expr_taint(value, empty)
            if not taint:
                continue
            for text in texts:
                step = FlowStep(text, ctx.module, stmt.lineno)
                add = {
                    kind: _extend(chain, step)
                    for kind, chain in taint.items()
                    if not _ms_sanctioned(text, kind)
                }
                if not add:
                    continue
                entry = out.setdefault(text, {})
                for kind, chain in add.items():
                    entry.setdefault(kind, chain)
    return out
