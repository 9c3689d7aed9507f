"""Purity inference for scheduler certification.

The cost-curve cache planned for the comparison harness may only reuse
a scheduler's output when ``schedule()`` is a pure function of its
arguments: no writes to ``self``, no module-global mutation, no
mutation of argument aliases. This pass infers exactly those *effects*
for any function, interprocedurally, and backs the
``impure-scheduler`` rule in :mod:`repro.analysis.taintrules`.

An effect is a ``(kind, detail)`` pair:

* ``("self", "_hist")`` — a write reaching state hanging off ``self``
  (attribute store, subscript store, ``del``, or a mutator-method call
  like ``self._hist.append(...)``);
* ``("global", "CACHE")`` — a ``global``-declared rebind or an
  in-place mutation of a module-level binding;
* ``("param", "weights")`` — mutation of an object reachable from a
  (non-``self``) parameter.

Aliases are tracked shallowly, the same discipline as the
shared-fleet-mutation rule: ``rows = self._rows`` makes ``rows`` a
``self`` alias, ``local = list(...)`` starts a fresh object. Calls
resolve through the class-aware project call graph (the
:class:`~repro.analysis.taint.SummaryProvider` function table and
resolver), so ``self.schedule()`` delegating to ``self._note()`` which
appends to ``self._hist`` is caught two hops away. Summaries come from
the shared :class:`~repro.analysis.project.Summaries` engine, so a
function's effect set is exact on every call the graph resolves —
recursion included — and does not depend on which function was asked
first; only *unresolvable* calls are assumed pure (*unknown is never
impure*).

Each effect carries a :class:`~repro.analysis.findings.FlowStep` chain
from the offending call site down to the actual write
(``_note() -> self._hist.append``) so findings can show the full path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from .base import FileContext, ProjectContext, dotted_text
from .cfg import FunctionNode, walk_function_body
from .findings import FlowStep
from .project import Summaries, args_by_param
from .taint import SummaryProvider, project_summaries, summaries_for

__all__ = [
    "MUTATOR_METHODS",
    "PuritySummary",
    "PurityIndex",
    "project_purity_index",
    "purity_index_for",
]

#: one effect: ("self" | "global" | "param", detail)
Effect = Tuple[str, str]
Chain = Tuple[FlowStep, ...]

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
        "popleft",
    }
)

_MAX_CHAIN = 8


@dataclass
class PuritySummary:
    """Inferred effect set of one function (empty == certified pure)."""

    effects: FrozenSet[Effect] = frozenset()
    #: representative write path per effect, call-site hop first
    chains: Dict[Effect, Chain] = field(default_factory=dict)

    @property
    def is_pure(self) -> bool:
        return not self.effects

    def chain_for(self, effect: Effect) -> Chain:
        return self.chains.get(effect, ())


_PURE = PuritySummary()


class PurityIndex:
    """Per-function purity summaries over one call resolver.

    Shares the resolver (and therefore the function table and
    bound-method resolution) with the taint summaries, and the
    :class:`~repro.analysis.project.Summaries` engine with every
    interprocedural pass; only the inferred fact differs.
    """

    def __init__(self, resolver: SummaryProvider) -> None:
        self._resolver = resolver
        self._summaries: Summaries[PuritySummary] = Summaries(
            self._infer_key, _PURE, lambda summary: summary.effects
        )

    def get(self, key: str) -> PuritySummary:
        return self._summaries.get(key)

    def _infer_key(self, key: str) -> PuritySummary:
        entry = self._resolver.entry(key)
        if entry is None:
            return _PURE
        return self._infer(*entry)

    # -- inference ---------------------------------------------------------
    def _infer(
        self,
        ctx: FileContext,
        owner_class: Optional[str],
        func: FunctionNode,
    ) -> PuritySummary:
        args = func.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        params.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)

        # alias roots: local name -> "self" | "param:<name>"
        aliases: Dict[str, str] = {}
        for i, name in enumerate(params):
            if i == 0 and name in ("self", "cls") and owner_class:
                aliases[name] = "self"
            else:
                aliases[name] = f"param:{name}"
        globals_declared: Set[str] = set()

        effects: Dict[Effect, Chain] = {}

        def record(effect: Effect, chain: Chain) -> None:
            effects.setdefault(effect, chain)

        def root_of(base: ast.expr) -> Optional[str]:
            """Alias root of an expression used as a mutation target."""
            text = dotted_text(base)
            if text is None:
                return None
            head = text.split(".", 1)[0]
            if head not in globals_declared:
                alias = aliases.get(head)
                if alias is not None:
                    return alias
            if head in globals_declared or _is_module_binding(ctx, head):
                # rooted at a module-level binding: mutating it (or
                # anything reachable from it) is module-global state
                return f"global:{head}"
            return None

        def effect_for(
            base: ast.expr, write_label: str, lineno: int
        ) -> None:
            root = root_of(base)
            if root is None:
                return
            record(
                _located(root, dotted_text(base) or write_label),
                (FlowStep(write_label, ctx.module, lineno),),
            )

        nodes = list(walk_function_body(func))

        # pass 1: alias seeding from straight-line assignments
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            src = node.value
            src_text = dotted_text(src) if isinstance(
                src, (ast.Name, ast.Attribute)
            ) else None
            if src_text is None:
                continue
            head = src_text.split(".", 1)[0]
            root = aliases.get(head)
            if root is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.setdefault(target.id, root)

        # pass 2: effects
        for node in nodes:
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._target_effect(
                        target, effect_for, globals_declared
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._target_effect(
                        target, effect_for, globals_declared
                    )
            elif isinstance(node, ast.Call):
                self._call_effect(
                    node, ctx, owner_class, aliases, effect_for, record
                )

        if not effects:
            return _PURE
        return PuritySummary(
            effects=frozenset(effects), chains=dict(effects)
        )

    @staticmethod
    def _target_effect(
        target: ast.expr,
        effect_for: Callable[[ast.expr, str, int], None],
        globals_declared: Set[str],
    ) -> None:
        """Effects of one store/delete target."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                PurityIndex._target_effect(
                    elt, effect_for, globals_declared
                )
            return
        if isinstance(target, ast.Starred):
            PurityIndex._target_effect(
                target.value, effect_for, globals_declared
            )
            return
        if isinstance(target, ast.Attribute):
            label = dotted_text(target) or "<attribute>"
            effect_for(target, f"{label} =", target.lineno)
        elif isinstance(target, ast.Subscript):
            label = dotted_text(target.value) or "<subscript>"
            effect_for(target.value, f"{label}[...] =", target.lineno)
        elif isinstance(target, ast.Name):
            if target.id in globals_declared:
                effect_for(target, f"{target.id} =", target.lineno)

    def _call_effect(
        self,
        call: ast.Call,
        ctx: FileContext,
        owner_class: Optional[str],
        aliases: Dict[str, str],
        effect_for: Callable[[ast.expr, str, int], None],
        record: Callable[[Effect, Chain], None],
    ) -> None:
        # in-place mutator on a tracked receiver: self._hist.append(x)
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATOR_METHODS
        ):
            label = dotted_text(call.func)
            if label is not None:
                effect_for(call.func.value, label, call.lineno)
                return
        # resolved callee: lift its effects to this call site
        target = self._resolver.resolve_call(ctx, owner_class, call)
        if target is None:
            return
        callee = self.get(target.key)
        if callee.is_pure:
            return
        short, params, bound = target.fn.name, target.fn.params, target.bound
        hop = FlowStep(f"{short}()", ctx.module, call.lineno)
        raw = dotted_text(call.func) or short

        def lift(chain: Chain) -> Chain:
            if len(chain) >= _MAX_CHAIN:
                chain = chain[-(_MAX_CHAIN - 1) :]
            return (hop, *chain)

        for effect in sorted(callee.effects):
            kind, detail = effect
            chain = lift(callee.chain_for(effect))
            if kind == "global":
                record(("global", detail), chain)
            elif kind == "self":
                # whose state did the callee mutate? the receiver's.
                root = aliases.get(raw.split(".", 1)[0])
                if bound and root == "self":
                    record(effect, chain)
                elif bound and root is not None:
                    record(_located(root, raw), chain)
            elif detail in params:  # ("param", <callee param name>)
                arg = args_by_param(call, target).get(params.index(detail))
                text = dotted_text(arg) if arg is not None else None
                if text is None:
                    continue
                root = aliases.get(text.split(".", 1)[0])
                if root is not None:
                    record(_located(root, text), chain)


def _located(root: str, text: str) -> Effect:
    """The effect of mutating ``text``, an expression hanging off the
    alias root ``root`` (``"self"``, ``"param:<name>"``, ``"global:<name>"``)."""
    if root == "self":
        rest = text.split(".", 2)
        return ("self", rest[1] if len(rest) > 1 else text)
    kind, _, name = root.partition(":")
    return (kind, name)


def _is_module_binding(ctx: FileContext, name: str) -> bool:
    """Whether ``name`` is bound at module level in this file."""
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == name
            ):
                return True
    return False


def project_purity_index(project: ProjectContext) -> PurityIndex:
    """The shared purity index of a whole-repo run (cached)."""
    return project.memo(
        "purity-index", lambda: PurityIndex(project_summaries(project))
    )


def purity_index_for(ctx: FileContext) -> PurityIndex:
    """The purity index for a file's scope (cached per project run)."""
    project = ctx.project
    if project is None or project.graph is None:
        return PurityIndex(summaries_for(ctx))
    return project_purity_index(project)
