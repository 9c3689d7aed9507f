"""Async-safety rule pack for the serve control plane.

The orchestrator (:mod:`repro.serve`) is a single asyncio event loop
interleaving heartbeats, monitor sweeps and round jobs over one shared
columnar fleet. Its failure modes are *ordering* bugs — a blocking
call starving every round, a lock held while the loop runs someone
else's code, a dropped task that shutdown cancellation can't reach —
which the per-node AST rules of :mod:`repro.analysis.rules` cannot
express. These five rules run on the flow-sensitive layer
(:mod:`repro.analysis.cfg` + :mod:`repro.analysis.dataflow`) and the
whole-program call graph instead:

* ``blocking-call-in-async`` — ``time.sleep`` / socket / subprocess /
  file-I/O reachable from a coroutine without an executor hop,
  *transitively*: a sync helper that blocks taints every sync caller,
  and any coroutine calling into that chain is flagged with the path.
* ``unawaited-coroutine`` — a coroutine call whose object is neither
  awaited, passed along, nor stored anywhere it is later used: the
  body silently never runs.
* ``lock-across-await`` — an ``asyncio``/``threading`` lock held over
  a suspension point. A forward dataflow tracks the held-lock set
  through branches, loops and ``with`` blocks; the *order* of release
  vs. ``await`` is exactly what the AST engine could not see.
* ``task-leak`` — ``asyncio.create_task`` / ``ensure_future`` whose
  handle is dropped (bare statement or never-read local), so shutdown
  cancellation and exception retrieval can't reach the task.
* ``shared-fleet-mutation`` — writes to :class:`~repro.fleet.store
  .FleetStore` columns from ``repro.serve`` code outside
  ``DeviceRegistry`` (the registry owns the lifecycle columns — see
  ``docs/orchestrator.md``), tracked through local aliases by a
  forward alias analysis rather than a name heuristic.

All five degrade gracefully without a project graph (fixture runs):
the cross-module legs switch off, the local legs keep working.
"""

from __future__ import annotations

import ast
from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from .base import (
    FileContext,
    FileRule,
    ProjectContext,
    dotted_text,
    rule,
)
from .cfg import (
    CFG,
    FunctionNode,
    Unit,
    WithExit,
    build_cfg,
    contains_suspension,
    walk_function_body,
)
from .dataflow import MayUnion, solve_forward, unit_facts
from .findings import Finding
from .project import CallTarget, Summaries, enclosing_class

__all__ = [
    "BlockingCallInAsync",
    "UnawaitedCoroutine",
    "LockAcrossAwait",
    "TaskLeak",
    "SharedFleetMutation",
]


def _own_calls(func: FunctionNode) -> Iterator[ast.Call]:
    for node in walk_function_body(func):
        if isinstance(node, ast.Call):
            yield node


def _dropped_calls(
    func: FunctionNode,
) -> Iterator[Tuple[ast.stmt, ast.Call, Optional[str]]]:
    """Calls whose result the function drops: a bare expression
    statement ``(stmt, call, None)``, or the sole assignment to a local
    the body never reads, ``(stmt, call, name)``."""
    loads = {
        node.id
        for node in walk_function_body(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for stmt in walk_function_body(func):
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            yield (stmt, stmt.value, None)
        elif (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and stmt.targets[0].id not in loads
        ):
            yield (stmt, stmt.value, stmt.targets[0].id)


def _project_target(
    ctx: FileContext,
    call: ast.Call,
    owner_class: Optional[str] = None,
) -> Optional[CallTarget]:
    """The project callable behind a call site (None without a graph)."""
    if ctx.project is None or ctx.project.graph is None:
        return None
    return ctx.project.graph.resolve_call(ctx, owner_class, call)


# ---------------------------------------------------------------------------
# blocking-call-in-async
# ---------------------------------------------------------------------------

#: callables that block the event loop, by resolved dotted name
_BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.waitpid",
        "open",
        "io.open",
    }
)
_BLOCKING_PREFIXES = (
    "socket.",
    "subprocess.",
    "urllib.request.",
    "http.client.",
    "requests.",
)


def _blocking_reason(dotted: Optional[str]) -> Optional[str]:
    """The blocking callable named by a resolved dotted path, if any."""
    if dotted is None:
        return None
    if dotted in _BLOCKING_EXACT:
        return dotted
    for prefix in _BLOCKING_PREFIXES:
        if dotted.startswith(prefix):
            return dotted
    return None


def _blocking_index(
    project: ProjectContext,
) -> Summaries[Tuple[str, ...]]:
    """Which sync project functions (transitively) block, and how.

    ``.get(key)`` is the call chain from ``key`` to a blocking leaf,
    e.g. ``("_flush", "time.sleep")`` — the function's first direct
    blocking call in body order, else its first blocking callee in
    sorted key order — or ``()`` when nothing it reaches blocks.
    Inferred on demand, for the functions some coroutine reaches only;
    async functions never block their caller (each coroutine gets its
    own direct findings) and so does anything the graph cannot name.
    """

    graph = project.graph

    def infer(key: str) -> Tuple[str, ...]:
        entry = graph.functions().get(key) if graph else None
        if entry is None or isinstance(entry[2], ast.AsyncFunctionDef):
            return ()
        assert graph is not None
        ctx, owner, func = entry
        callees: Set[str] = set()
        for call in _own_calls(func):
            reason = _blocking_reason(ctx.dotted_name(call.func))
            if reason is not None:
                return (reason,)
            target = graph.resolve_call(ctx, owner, call)
            if target is not None:
                callees.add(target.key)
        for callee in sorted(callees):
            chain = index.get(callee)
            if chain:
                return (callee.rsplit(".", 1)[-1], *chain)
        return ()

    index: Summaries[Tuple[str, ...]] = project.memo(
        "blocking-index", lambda: Summaries(infer, (), bool)
    )
    return index


@rule("blocking-call-in-async")
class BlockingCallInAsync(FileRule):
    """Event-loop-blocking call reachable from a coroutine."""

    description = (
        "coroutines must not call blocking APIs (time.sleep, socket, "
        "subprocess, file I/O) — directly or through sync helpers; "
        "use the async equivalent or an executor hop"
    )
    node_types = (ast.AsyncFunctionDef,)

    def applies_to(self, module: str) -> bool:
        return module.startswith("src/repro/")

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.AsyncFunctionDef)
        owner = ctx.owner_class_of(node)
        for call in _own_calls(node):
            dotted = ctx.dotted_name(call.func)
            reason = _blocking_reason(dotted)
            if reason is not None:
                yield ctx.finding(
                    self.id,
                    call,
                    f"blocking call `{reason}` in coroutine "
                    f"{node.name!r} stalls the event loop; use the "
                    "async equivalent (await asyncio.sleep, asyncio "
                    "streams) or hand it to an executor "
                    "(asyncio.to_thread / loop.run_in_executor)",
                )
                continue
            target = _project_target(ctx, call, owner)
            if target is None:
                continue
            assert ctx.project is not None
            chain = _blocking_index(ctx.project).get(target.key)
            if chain:
                path = " -> ".join([target.fn.name, *chain])
                yield ctx.finding(
                    self.id,
                    call,
                    f"coroutine {node.name!r} reaches blocking "
                    f"`{chain[-1]}` through sync calls ({path}); "
                    "make the chain async or hop to an executor",
                )


# ---------------------------------------------------------------------------
# unawaited-coroutine
# ---------------------------------------------------------------------------


@rule("unawaited-coroutine")
class UnawaitedCoroutine(FileRule):
    """Coroutine object created but never awaited or scheduled."""

    description = (
        "a coroutine call whose result is neither awaited, gathered, "
        "nor stored as a task never runs its body"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    @staticmethod
    def _local_async(ctx: FileContext) -> Set[str]:
        return ctx.memo(
            "async-def-names",
            lambda: {
                node.name
                for node in ast.walk(ctx.tree)
                if isinstance(node, ast.AsyncFunctionDef)
            },
        )

    def _is_coroutine_call(
        self, call: ast.Call, ctx: FileContext
    ) -> bool:
        dotted = ctx.dotted_name(call.func)
        if dotted is None:
            return False
        parts = dotted.split(".")
        local = self._local_async(ctx)
        if len(parts) == 1 and parts[0] in local:
            return True
        if (
            len(parts) == 2
            and parts[0] in ("self", "cls")
            and parts[1] in local
        ):
            return True
        target = _project_target(ctx, call)
        return target is not None and target.fn.is_async

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        for stmt, call, name in _dropped_calls(node):
            if not self._is_coroutine_call(call, ctx):
                continue
            if name is None:
                spelled = ctx.dotted_name(call.func) or "?"
                message = (
                    f"coroutine `{spelled}(...)` is never awaited — "
                    "its body will not run; await it or wrap it "
                    "in asyncio.create_task"
                )
            else:
                message = (
                    f"coroutine assigned to {name!r} but the "
                    "name is never read — the coroutine is never "
                    "awaited"
                )
            yield ctx.finding(self.id, stmt, message)


# ---------------------------------------------------------------------------
# lock-across-await
# ---------------------------------------------------------------------------

#: constructors whose result is a mutual-exclusion primitive
_LOCK_FACTORIES = frozenset(
    {
        "asyncio.Lock",
        "asyncio.Semaphore",
        "asyncio.BoundedSemaphore",
        "asyncio.Condition",
        "threading.Lock",
        "threading.RLock",
        "threading.Semaphore",
        "threading.Condition",
    }
)

#: annotation texts marking a parameter as a lock
_LOCK_ANNOTATIONS = frozenset(
    {"Lock", "asyncio.Lock", "threading.Lock", "RLock", "Semaphore"}
)


def _lockish(text: Optional[str], declared: FrozenSet[str]) -> bool:
    """Whether an expression names a lock: declared, or lock-named."""
    if text is None:
        return False
    if text in declared:
        return True
    tail = text.rsplit(".", 1)[-1].lower()
    return "lock" in tail or "mutex" in tail


def _declared_locks(ctx: FileContext, func: FunctionNode) -> FrozenSet[str]:
    """Lock expressions visible in ``func``: ``self.X`` attributes
    assigned a lock factory anywhere in the file, locals assigned one
    in this function, and parameters annotated as locks."""
    names: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        dotted = ctx.dotted_name(node.value.func)
        if dotted not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            text = dotted_text(target)
            if text is not None:
                names.add(text)
    for arg in [*func.args.posonlyargs, *func.args.args]:
        if arg.annotation is None:
            continue
        ann = dotted_text(arg.annotation) or ""
        if ann in _LOCK_ANNOTATIONS:
            names.add(arg.arg)
    return frozenset(names)


class _HeldLocks(MayUnion[str]):
    """Forward may-analysis: which locks may be held at each point."""

    def __init__(self, declared: FrozenSet[str]) -> None:
        self.declared = declared

    def initial(self, cfg: CFG) -> FrozenSet[str]:
        return frozenset()

    def _with_locks(
        self, node: Union[ast.With, ast.AsyncWith]
    ) -> Set[str]:
        out: Set[str] = set()
        for item in node.items:
            text = dotted_text(item.context_expr)
            if _lockish(text, self.declared):
                assert text is not None
                out.add(text)
        return out

    def transfer(
        self, fact: FrozenSet[str], unit: Unit
    ) -> FrozenSet[str]:
        if isinstance(unit, WithExit):
            return fact - self._with_locks(unit.node)
        if isinstance(unit, (ast.With, ast.AsyncWith)):
            return fact | self._with_locks(unit)
        # terminator units carry their whole body in the AST node;
        # only the header expression executes in this block
        scan: ast.AST
        if isinstance(unit, (ast.If, ast.While)):
            scan = unit.test
        elif isinstance(unit, (ast.For, ast.AsyncFor)):
            scan = unit.iter
        elif isinstance(unit, ast.Try):
            return fact
        else:
            scan = unit
        held = set(fact)
        for node in walk_function_body(scan):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = dotted_text(func.value)
            if not _lockish(owner, self.declared):
                continue
            assert owner is not None
            if func.attr == "acquire":
                held.add(owner)
            elif func.attr == "release":
                held.discard(owner)
        return frozenset(held)


def _unit_suspends(unit: Unit) -> bool:
    """Whether executing this unit may yield to the event loop.

    ``WithExit`` is deliberately ``False``: the ``__aexit__`` await of
    an ``async with lock`` *is* the release, not a held-across point.
    """
    if isinstance(unit, WithExit):
        return False
    if isinstance(unit, (ast.AsyncFor, ast.AsyncWith)):
        return True
    if isinstance(unit, (ast.If, ast.While)):
        return contains_suspension(unit.test)
    if isinstance(unit, ast.For):
        return contains_suspension(unit.iter)
    if isinstance(unit, (ast.Try, ast.With)):
        return False
    return contains_suspension(unit)


@rule("lock-across-await")
class LockAcrossAwait(FileRule):
    """Lock held over a suspension point (dataflow-checked)."""

    description = (
        "an asyncio/threading lock held across an await suspends the "
        "whole critical section while other coroutines run — release "
        "before suspending or narrow the critical section"
    )
    node_types = (ast.AsyncFunctionDef,)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.AsyncFunctionDef)
        declared = _declared_locks(ctx, node)
        analysis = _HeldLocks(declared)
        # cheap prescan: anything lock-ish mentioned at all?
        if not any(
            _lockish(dotted_text(sub), declared)
            for sub in walk_function_body(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        ):
            return
        cfg = build_cfg(node)
        entry = solve_forward(cfg, analysis)
        for block in cfg.blocks:
            for fact, unit in unit_facts(
                analysis, cfg, block.idx, entry[block.idx]
            ):
                if not fact or not _unit_suspends(unit):
                    continue
                assert not isinstance(unit, WithExit)
                held = ", ".join(sorted(fact))
                yield ctx.finding(
                    self.id,
                    unit,
                    f"lock(s) {held} held across a suspension point "
                    f"in coroutine {node.name!r}; the event loop may "
                    "interleave arbitrary coroutines while the lock "
                    "is held",
                )


# ---------------------------------------------------------------------------
# task-leak
# ---------------------------------------------------------------------------

_SPAWN_EXACT = frozenset(
    {"asyncio.create_task", "asyncio.ensure_future"}
)
_SPAWN_TAILS = (".create_task", ".ensure_future")


def _taskgroup_names(func: FunctionNode) -> Set[str]:
    """Names bound by ``async with asyncio.TaskGroup() as tg`` — the
    group owns its tasks, so dropped handles are fine."""
    out: Set[str] = set()
    for node in walk_function_body(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            if not isinstance(item.context_expr, ast.Call):
                continue
            text = dotted_text(item.context_expr.func) or ""
            if text.endswith("TaskGroup") and isinstance(
                item.optional_vars, ast.Name
            ):
                out.add(item.optional_vars.id)
    return out


@rule("task-leak")
class TaskLeak(FileRule):
    """``create_task`` handle dropped — uncancellable, unjoinable."""

    description = (
        "a task whose handle is dropped cannot be cancelled on "
        "shutdown and its exceptions vanish; keep the handle (or use "
        "a TaskGroup)"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def _is_spawn(
        self, call: ast.Call, ctx: FileContext, exempt: Set[str]
    ) -> bool:
        dotted = ctx.dotted_name(call.func)
        if dotted is None:
            return False
        if dotted in _SPAWN_EXACT:
            return True
        head = dotted.split(".", 1)[0]
        if head in exempt:
            return False
        return any(dotted.endswith(t) for t in _SPAWN_TAILS)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        exempt = _taskgroup_names(node)
        for stmt, call, name in _dropped_calls(node):
            if not self._is_spawn(call, ctx, exempt):
                continue
            yield ctx.finding(
                self.id,
                stmt,
                "task handle dropped at creation; store it "
                "so shutdown can cancel/await it"
                if name is None
                else f"task handle {name!r} is never read — "
                "the task cannot be cancelled or awaited",
            )


# ---------------------------------------------------------------------------
# shared-fleet-mutation
# ---------------------------------------------------------------------------

#: FleetStore columns whose lifecycle the registry owns
_FLEET_COLUMNS = frozenset(
    {"alive", "battery_j", "capacity_j", "data_size", "class_id"}
)
#: constructors producing a FleetStore
_FLEET_FACTORIES = ("FleetStore", "synthetic_fleet")
#: the one class allowed to write fleet columns
_FLEET_OWNER = "DeviceRegistry"


def _is_fleet_source(value: ast.expr, fact: FrozenSet[str]) -> bool:
    """Whether an assigned expression may be a FleetStore."""
    if isinstance(value, ast.Name):
        return value.id in fact
    text = dotted_text(value)
    if text is not None and (
        text == "fleet" or text.endswith(".fleet")
    ):
        return True
    if isinstance(value, ast.Call):
        func_text = dotted_text(value.func) or ""
        return any(
            func_text == name or func_text.endswith(f".{name}")
            for name in _FLEET_FACTORIES
        )
    return False


class _FleetAliases(MayUnion[str]):
    """Forward alias analysis: locals that may name the shared fleet."""

    def __init__(self, seed: FrozenSet[str]) -> None:
        self.seed = seed

    def initial(self, cfg: CFG) -> FrozenSet[str]:
        return self.seed

    def transfer(
        self, fact: FrozenSet[str], unit: Unit
    ) -> FrozenSet[str]:
        if isinstance(unit, WithExit):
            return fact
        out = set(fact)
        if isinstance(unit, ast.Assign):
            names = [
                t.id
                for t in unit.targets
                if isinstance(t, ast.Name)
            ]
            if names:
                if _is_fleet_source(unit.value, fact):
                    out.update(names)
                else:
                    out.difference_update(names)
        elif isinstance(unit, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(unit.target):
                if isinstance(sub, ast.Name):
                    out.discard(sub.id)
        elif isinstance(unit, (ast.With, ast.AsyncWith)):
            for item in unit.items:
                if isinstance(item.optional_vars, ast.Name):
                    out.discard(item.optional_vars.id)
        return frozenset(out)


def _fleet_base(expr: ast.expr, fact: FrozenSet[str]) -> Optional[str]:
    """The fleet expression behind a column access base, if any."""
    if isinstance(expr, ast.Name) and expr.id in fact:
        return expr.id
    text = dotted_text(expr)
    if text is not None and (
        text == "fleet" or text.endswith(".fleet")
    ):
        return text
    return None


def _column_store(
    target: ast.expr, fact: FrozenSet[str]
) -> Optional[Tuple[str, str]]:
    """(fleet expr, column) when ``target`` writes a fleet column."""
    # fleet.col[i] = v  (element store)
    if isinstance(target, ast.Subscript) and isinstance(
        target.value, ast.Attribute
    ):
        attr = target.value
        if attr.attr in _FLEET_COLUMNS:
            base = _fleet_base(attr.value, fact)
            if base is not None:
                return (base, attr.attr)
    # fleet.col = v  (whole-column rebind)
    if isinstance(target, ast.Attribute) and (
        target.attr in _FLEET_COLUMNS
    ):
        base = _fleet_base(target.value, fact)
        if base is not None:
            return (base, target.attr)
    return None


@rule("shared-fleet-mutation")
class SharedFleetMutation(FileRule):
    """Fleet column written outside the registry's ownership seam."""

    description = (
        "FleetStore columns are owned by DeviceRegistry — serve code "
        "elsewhere must go through registry/fleet methods, not write "
        "columns directly (alias-tracked)"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, module: str) -> bool:
        return module.startswith("src/repro/serve/")

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        classes: List[ast.ClassDef] = ctx.memo(
            "class-defs",
            lambda: [
                sub
                for sub in ast.walk(ctx.tree)
                if isinstance(sub, ast.ClassDef)
            ],
        )
        if enclosing_class(classes, node.lineno) == _FLEET_OWNER:
            return
        # cheap prescan: any owned column name mentioned at all?
        if not any(
            isinstance(sub, ast.Attribute)
            and sub.attr in _FLEET_COLUMNS
            for sub in walk_function_body(node)
        ):
            return
        seed = frozenset(
            arg.arg
            for arg in [
                *node.args.posonlyargs,
                *node.args.args,
            ]
            if arg.arg == "fleet"
            or (
                arg.annotation is not None
                and (dotted_text(arg.annotation) or "").endswith("FleetStore")
            )
        )
        analysis = _FleetAliases(seed)
        cfg = build_cfg(node)
        entry = solve_forward(cfg, analysis)
        for block in cfg.blocks:
            for fact, unit in unit_facts(
                analysis, cfg, block.idx, entry[block.idx]
            ):
                if isinstance(unit, WithExit):
                    continue
                targets: List[ast.expr] = []
                if isinstance(unit, ast.Assign):
                    targets = list(unit.targets)
                elif isinstance(unit, ast.AugAssign):
                    targets = [unit.target]
                for target in targets:
                    hit = _column_store(target, fact)
                    if hit is None:
                        continue
                    base, column = hit
                    yield ctx.finding(
                        self.id,
                        unit,
                        f"write to FleetStore column {column!r} via "
                        f"`{base}` outside {_FLEET_OWNER} — route the "
                        "mutation through the registry (it owns the "
                        "lifecycle columns)",
                    )
