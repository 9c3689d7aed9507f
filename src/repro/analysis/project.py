"""Whole-program model behind the cross-module lint rules.

PR 3's linter was strictly per-file: one parse, one walk, rules that
see a single AST. The invariants the reproduction actually depends on
— units not silently crossing call boundaries, no coroutine reaching a
blocking call — live *between* files. This
module parses the whole ``src/repro`` tree **once** and derives two
structures, plus one resolver:

* a **symbol table** per module (top-level classes with bases and
  methods; functions with their signatures; constants; the
  ``__all__`` export list),
* per-module **import records** with proper relative-import
  resolution (``from ..core.schedule import Schedule`` inside
  ``repro/sched/base.py`` records ``("repro.core.schedule",
  "Schedule")``), and
* :meth:`ProjectGraph.resolve_call`, the one resolver of the
  approximate, name-resolution-based **call graph** (no execution: a
  call site resolves on demand, through the module's import bindings,
  to a project callable, e.g. ``get_scheduler`` ->
  ``repro.sched.registry.get_scheduler``). Every interprocedural rule
  asks it; no call site is collected up front.

Single-parse guarantee: :func:`build_project` is the only place the
lint pipeline calls ``ast.parse`` for a repo run, and it notifies the
process-wide :func:`set_parse_listener` hook per file — the regression
test asserts every file is parsed exactly once per ``repro lint``
invocation, no matter how many rules consume the tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from .base import (
    FileContext,
    ProjectContext,
    dotted_text,
    module_all,
    source_lines,
)
from .cfg import FunctionNode
from .findings import Finding

__all__ = [
    "FunctionInfo",
    "ConstantInfo",
    "CallTarget",
    "ProjectGraph",
    "Summaries",
    "build_project",
    "enclosing_class",
    "module_name_for",
    "set_parse_listener",
]

#: called with the repo-relative path every time a file is parsed;
#: the parse-count regression test uses it to pin the single-parse
#: property of the pipeline.
ParseListener = Callable[[str], None]

_parse_listener: Optional[ParseListener] = None


def set_parse_listener(listener: Optional[ParseListener]) -> None:
    """Install (or clear, with ``None``) the process-wide parse hook."""
    global _parse_listener
    _parse_listener = listener


def module_name_for(relpath: str) -> Optional[str]:
    """Dotted module name of a repo-relative path under ``src/``.

    ``src/repro/sched/base.py`` -> ``repro.sched.base``;
    ``src/repro/__init__.py`` -> ``repro``; files outside ``src/``
    (tests linted explicitly, say) have no dotted identity -> None.
    """
    if not relpath.startswith("src/") or not relpath.endswith(".py"):
        return None
    parts = relpath[len("src/") : -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(p.isidentifier() for p in parts):
        return None
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """Top-level function or method signature (no bodies kept)."""

    name: str
    lineno: int
    #: positional-or-keyword (and positional-only) parameter names,
    #: in order, including ``self`` for methods
    params: Tuple[str, ...] = ()
    #: whether the definition is ``async def`` (calling it makes a
    #: coroutine — the async-safety rules key off this)
    is_async: bool = False


@dataclass
class ClassInfo:
    """Top-level class: bases as written, methods."""

    name: str
    lineno: int
    node: ast.ClassDef
    #: base expressions as dotted source text (unresolved)
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ConstantInfo:
    """Top-level assignment target (module constant or re-binding)."""

    name: str
    lineno: int


@dataclass
class ModuleInfo:
    """Everything the graph knows about one parsed module."""

    path: str
    name: str
    ctx: FileContext
    #: top-level symbols by name
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    constants: Dict[str, ConstantInfo] = field(default_factory=dict)
    #: ``__all__`` entries in declaration order (None when absent)
    exports: Optional[Tuple[str, ...]] = None
    exports_lineno: int = 0
    #: local name -> absolute dotted target
    #: (``np`` -> ``numpy``, ``register`` -> ``repro.sched.registry.register``)
    bindings: Dict[str, str] = field(default_factory=dict)
    #: (resolved module, imported symbol or None) per import statement
    import_records: List[Tuple[str, Optional[str]]] = field(
        default_factory=list
    )

    def symbol_lineno(self, name: str) -> int:
        for table in (self.classes, self.functions, self.constants):
            info = table.get(name)
            if info is not None:
                return info.lineno
        return self.exports_lineno or 1

    def has_symbol(self, name: str) -> bool:
        return (
            name in self.classes
            or name in self.functions
            or name in self.constants
        )

    def written_target(
        self, dotted: str, owner_class: Optional[str]
    ) -> Tuple[str, bool]:
        """``(absolute dotted target, bound dispatch?)`` of a call
        target as written in this module.

        ``self.helper`` / ``cls.helper`` inside ``owner_class`` becomes
        ``{module}.{Class}.helper`` so bound-method dispatch keeps its
        call-graph edge instead of dropping on the unbindable ``self``;
        anything else expands through the import bindings (relative
        imports included) or, for a module-level symbol, the module's
        own name.
        """
        head, _, rest = dotted.partition(".")
        if (
            head in ("self", "cls")
            and owner_class is not None
            and rest
            and "." not in rest
        ):
            return (f"{self.name}.{owner_class}.{rest}", True)
        bound = self.bindings.get(head)
        if bound is not None:
            return (f"{bound}.{rest}" if rest else bound, False)
        if self.has_symbol(head):
            return (f"{self.name}.{dotted}", False)
        return (dotted, False)


def function_info(node: FunctionNode) -> FunctionInfo:
    """Signature of one definition (``params`` is posonly + regular)."""
    args = node.args
    params = tuple(
        a.arg for a in [*args.posonlyargs, *args.args]
    )
    return FunctionInfo(
        name=node.name,
        lineno=node.lineno,
        params=params,
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )


def _class_info(node: ast.ClassDef) -> ClassInfo:
    bases = tuple(
        text
        for text in (dotted_text(b) for b in node.bases)
        if text is not None
    )
    methods: Dict[str, FunctionInfo] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = function_info(stmt)
    return ClassInfo(
        name=node.name,
        lineno=node.lineno,
        node=node,
        bases=bases,
        methods=methods,
    )


def _resolve_relative(
    importer: str, is_package: bool, module: Optional[str], level: int
) -> Optional[str]:
    """Absolute module named by a (possibly relative) import.

    ``importer`` is the dotted name of the importing module;
    ``module``/``level`` come from the ``ast.ImportFrom`` node.
    """
    if level == 0:
        return module
    parts = importer.split(".")
    if not is_package:
        parts = parts[:-1]
    # each level beyond the first climbs one more package
    if level > 1:
        if level - 1 > len(parts):
            return None
        parts = parts[: len(parts) - (level - 1)]
    if module:
        parts = [*parts, *module.split(".")]
    return ".".join(parts) if parts else None


class CallTarget(NamedTuple):
    """A call site resolved against the project graph."""

    #: canonical callable key (``mod.fn`` / ``mod.Class.method``)
    key: str
    fn: FunctionInfo
    #: ``self.x()`` / ``cls.x()`` dispatch: the receiver is ``params[0]``
    bound: bool


#: one row of a function table: where a callable key is defined
FunctionEntry = Tuple[FileContext, Optional[str], FunctionNode]


class ProjectGraph:
    """Symbol table + approximate call graph.

    Name resolution is static and best-effort: it follows the import
    bindings recorded per module and re-export chains through package
    ``__init__`` modules, and gives up (returns ``None``) on dynamic
    constructs. Rules built on it must treat *unresolvable* as
    *unknown*, never as a violation.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self._functions: Optional[Dict[str, FunctionEntry]] = None

    # -- construction ------------------------------------------------------
    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        self.by_path[info.path] = info

    # -- lookups -----------------------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """(defining module, symbol name) behind ``module.name``.

        Follows ``from x import y`` re-export chains (bounded by a
        visited set); returns None when the chain leaves the graph or
        the symbol cannot be found.
        """
        seen = _seen if _seen is not None else set()
        key = f"{module}.{name}"
        if key in seen:
            return None
        seen.add(key)
        info = self.modules.get(module)
        if info is None:
            return None
        if info.has_symbol(name):
            return (info, name)
        bound = info.bindings.get(name)
        if bound is None:
            return None
        if bound in self.modules:
            # the local name is a module alias, not a symbol
            return None
        if "." not in bound:
            return None
        target_mod, target_name = bound.rsplit(".", 1)
        return self.resolve_symbol(target_mod, target_name, seen)

    def resolve_dotted(
        self, module: str, dotted: str
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """Resolve an absolute dotted reference like
        ``repro.sched.registry.get_scheduler`` to its definition."""
        if "." not in dotted:
            return self.resolve_symbol(module, dotted)
        head_mod, name = dotted.rsplit(".", 1)
        if head_mod in self.modules:
            return self.resolve_symbol(head_mod, name, None)
        return None

    def resolve_class(
        self, module: str, ref: str
    ) -> Optional[Tuple[ModuleInfo, ClassInfo]]:
        """Resolve a class reference as written in ``module``.

        ``ref`` may be a bare name (``Scheduler``) or dotted text
        (``base.Scheduler``); the head resolves through the module's
        import bindings first.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = ref.partition(".")
        bound = info.bindings.get(head)
        if bound is not None:
            dotted = f"{bound}.{rest}" if rest else bound
        elif rest:
            # dotted text with an unbound head: absolute reference
            # (``repro.sched.base.Scheduler``) or give up
            dotted = ref
        else:
            dotted = f"{module}.{head}"
        resolved = self.resolve_dotted(module, dotted)
        if resolved is None:
            return None
        cls = resolved[0].classes.get(resolved[1])
        return (resolved[0], cls) if cls is not None else None

    def inherits_from(
        self, module: str, cls: ClassInfo, target: str
    ) -> bool:
        """Whether ``cls`` (defined in ``module``) transitively derives
        from a class called ``target``.

        Resolution is by name: a base that cannot be resolved inside
        the graph still counts when its last dotted component equals
        ``target`` (approximate on purpose — no execution).
        """
        stack: List[Tuple[str, ClassInfo]] = [(module, cls)]
        seen: Set[Tuple[str, str]] = set()
        while stack:
            mod, cur = stack.pop()
            if (mod, cur.name) in seen:
                continue
            seen.add((mod, cur.name))
            for base in cur.bases:
                if base.rsplit(".", 1)[-1] == target:
                    return True
                resolved = self.resolve_class(mod, base)
                if resolved is not None:
                    stack.append((resolved[0].name, resolved[1]))
        return False

    def find_method(
        self, module: str, cls: ClassInfo, method: str
    ) -> Optional[Tuple[ModuleInfo, ClassInfo, FunctionInfo]]:
        """Look up a method on a class or its (resolvable) ancestors."""
        stack: List[Tuple[str, ClassInfo]] = [(module, cls)]
        seen: Set[Tuple[str, str]] = set()
        while stack:
            mod, cur = stack.pop(0)
            if (mod, cur.name) in seen:
                continue
            seen.add((mod, cur.name))
            fn = cur.methods.get(method)
            if fn is not None:
                owner = self.modules.get(mod)
                if owner is not None:
                    return (owner, cur, fn)
            for base in cur.bases:
                resolved = self.resolve_class(mod, base)
                if resolved is not None:
                    stack.append((resolved[0].name, resolved[1]))
        return None

    def resolve_callable(
        self, module: str, dotted: str
    ) -> Optional[Tuple[str, ModuleInfo, FunctionInfo]]:
        """(canonical key, defining module, signature) behind a call.

        Resolves module-level functions (key ``mod.fn``) *and* methods
        spelled ``mod.Class.method`` — the form
        :meth:`ModuleInfo.written_target` gives ``self.helper()``
        dispatch — following inheritance
        through :meth:`find_method` (key names the *defining* class).
        """
        resolved = self.resolve_dotted(module, dotted)
        if resolved is not None:
            target_mod, name = resolved
            fn = target_mod.functions.get(name)
            if fn is not None:
                return (f"{target_mod.name}.{name}", target_mod, fn)
        if "." not in dotted:
            return None
        head, method = dotted.rsplit(".", 1)
        cls_resolved = self.resolve_dotted(module, head)
        if cls_resolved is None:
            return None
        owner_mod, cls_name = cls_resolved
        cls = owner_mod.classes.get(cls_name)
        if cls is None:
            return None
        found = self.find_method(owner_mod.name, cls, method)
        if found is None:
            return None
        def_mod, def_cls, fn = found
        return (f"{def_mod.name}.{def_cls.name}.{method}", def_mod, fn)

    def resolve_call(
        self,
        ctx: FileContext,
        owner_class: Optional[str],
        call: ast.Call,
    ) -> Optional[CallTarget]:
        """The project callable behind one call site of ``ctx`` — the
        one place an ``ast.Call`` is resolved against the graph.

        ``owner_class`` is the class whose method holds the call (so
        ``self.x()`` dispatches); unresolvable means *unknown*: None.
        """
        info = self.by_path.get(ctx.module)
        raw = dotted_text(call.func)
        if info is None or raw is None:
            return None
        written, bound = info.written_target(raw, owner_class)
        found = self.resolve_callable(info.name, written)
        if found is None:
            return None
        return CallTarget(found[0], found[2], bound)

    def functions(self) -> Dict[str, FunctionEntry]:
        """Every definition :meth:`resolve_callable` can name, under
        the same key (``mod.fn``; ``mod.Class.method`` for methods of
        top-level classes), so every interprocedural pass joins on one
        function table. Built once, in module then source order."""
        if self._functions is None:
            table: Dict[str, FunctionEntry] = {}
            for info in self.modules.values():
                for local, owner, func in defined_functions(info.ctx.tree):
                    table.setdefault(
                        f"{info.name}.{local}", (info.ctx, owner, func)
                    )
            self._functions = table
        return self._functions


def _collect_module(info: ModuleInfo) -> None:
    """Fill symbol table, import bindings and import records for one
    module; call sites are resolved on demand by
    :meth:`ProjectGraph.resolve_call`."""
    tree = info.ctx.tree
    is_package = info.path.endswith("__init__.py")
    exported = module_all(tree)
    all_stmt: Optional[ast.Assign] = None
    if exported is not None:
        all_stmt, info.exports = exported
        info.exports_lineno = all_stmt.lineno
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = function_info(stmt)
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _class_info(stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id != "__all__" or stmt is not all_stmt:
                    info.constants[target.id] = ConstantInfo(
                        target.id, stmt.lineno
                    )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            info.constants[stmt.target.id] = ConstantInfo(
                stmt.target.id, stmt.lineno
            )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.bindings.setdefault(
                    local,
                    alias.name if alias.asname else alias.name.split(".")[0],
                )
                info.import_records.append((alias.name, None))
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(
                info.name, is_package, node.module, node.level
            )
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    info.import_records.append((target, None))
                    continue
                local = alias.asname or alias.name
                info.bindings.setdefault(
                    local, f"{target}.{alias.name}"
                )
                info.import_records.append((target, alias.name))


def build_project(
    root: Path,
    files: Sequence[Path],
) -> Tuple[ProjectContext, List[Finding]]:
    """Parse ``files`` once and assemble the project model.

    Returns the populated :class:`ProjectContext` (per-file contexts in
    ``.files``, the :class:`ProjectGraph` in ``.graph``) plus parse
    errors rendered as findings. This is the **only** parse site of the
    repo-lint pipeline: every file is parsed exactly once, and the
    :func:`set_parse_listener` hook hears each parse.
    """
    project_ctx = ProjectContext(root=root)
    graph = ProjectGraph()
    parse_errors: List[Finding] = []
    for path in files:
        try:
            module = path.resolve().relative_to(root).as_posix()
        except ValueError:
            module = path.as_posix()
        source = path.read_text(encoding="utf-8")
        if _parse_listener is not None:
            _parse_listener(module)
        try:
            tree = ast.parse(source, filename=module)
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    rule_id="parse-error",
                    path=module,
                    line=exc.lineno or 1,
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        ctx = FileContext(
            module=module, source=source, tree=tree, project=project_ctx
        )
        project_ctx.files[module] = ctx
        dotted = module_name_for(module)
        if dotted is not None and dotted not in graph.modules:
            info = ModuleInfo(path=module, name=dotted, ctx=ctx)
            _collect_module(info)
            graph.add_module(info)
    project_ctx.graph = graph
    return project_ctx, parse_errors


def defined_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, Optional[str], FunctionNode]]:
    """``(local key, owning class, def node)`` of every module-level
    function (``fn``) and method of a top-level class
    (``Class.method``), in source order — the rows of a function table."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for stmt in tree.body:
        if isinstance(stmt, defs):
            yield (stmt.name, None, stmt)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, defs):
                    yield (f"{stmt.name}.{sub.name}", stmt.name, sub)


def enclosing_class(
    classes: Iterable[ast.ClassDef], lineno: int
) -> Optional[str]:
    """Name of the innermost of ``classes`` whose span holds ``lineno``."""
    best: Optional[ast.ClassDef] = None
    for cls in classes:
        if cls.lineno <= lineno <= (cls.end_lineno or cls.lineno) and (
            best is None or cls.lineno > best.lineno
        ):
            best = cls
    return best.name if best is not None else None


S = TypeVar("S")


class Summaries(Generic[S]):
    """On-demand per-function summaries, exact on a recursive call graph.

    ``infer(key)`` computes one function's summary and asks
    :meth:`get` for its callees'. What a summary *means* when the call
    graph has cycles is decided here, once, for every interprocedural
    pass: each key's summary is the **least fixed point** of ``infer``
    over the graph, whatever the order of queries. A back edge reads
    the current assumption for the key it closes on (``bottom`` at
    first); that key — the cycle's head — is re-inferred until the
    ``shape`` of its summary stops changing; and a summary is memoised
    only when nothing it read is still being inferred, so no answer
    computed *under* an assumption outlives it. ``shape`` is the
    lattice part of a summary (the representative chains a summary
    carries for messages grow with every trip round a cycle and must
    not drive convergence). ``infer`` must be monotone in what it reads
    and ``shape`` must range over a finite lattice; a memoised key is
    never inferred again.
    """

    def __init__(
        self,
        infer: Callable[[str], S],
        bottom: S,
        shape: Callable[[S], object],
    ) -> None:
        self._infer = infer
        self._bottom = bottom
        self._shape = shape
        self._done: Dict[str, S] = {}
        #: keys being inferred (the stack) -> their current assumption
        self._assumed: Dict[str, S] = {}
        #: assumed keys the innermost running ``infer`` has read
        self._reads: Set[str] = set()

    def get(self, key: str) -> S:
        if key in self._done:
            return self._done[key]
        if key in self._assumed:
            self._reads.add(key)
            return self._assumed[key]
        outer = self._reads
        self._assumed[key] = self._bottom
        try:
            while True:
                self._reads = set()
                value = self._infer(key)
                if key not in self._reads or self._shape(
                    value
                ) == self._shape(self._assumed[key]):
                    break
                self._assumed[key] = value
        finally:
            del self._assumed[key]
            open_reads = self._reads - {key}
            self._reads = outer | open_reads
        if not open_reads:
            self._done[key] = value
        return value


#: identifier tokens; shared by the dead-public-api reference scan
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def usage_tokens(source: str, tree: Optional[ast.Module]) -> Set[str]:
    """Identifier tokens of a file's *usage* text.

    Import statements and ``__all__`` blocks are excluded when a tree
    is supplied (AST line spans) and approximated textually otherwise —
    a re-export alone is not a *use* of a public symbol, so the
    dead-public-api rule must not count it as an inbound edge.
    """
    lines = source_lines(source)
    skip: Set[int] = set()
    if tree is not None:
        for node in ast.walk(tree):
            is_all = (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
            )
            if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all:
                end = getattr(node, "end_lineno", node.lineno)
                skip.update(range(node.lineno, (end or node.lineno) + 1))
    else:

        def _depth_delta(text: str) -> int:
            return (
                text.count("(")
                - text.count(")")
                + text.count("[")
                - text.count("]")
            )

        depth = 0
        for i, text in enumerate(lines, start=1):
            stripped = text.strip()
            if depth > 0:
                skip.add(i)
                depth = max(0, depth + _depth_delta(stripped))
                continue
            if stripped.startswith(("import ", "from ", "__all__")):
                skip.add(i)
                depth = max(0, _depth_delta(stripped))
    tokens: Set[str] = set()
    for i, text in enumerate(lines, start=1):
        if i in skip:
            continue
        tokens.update(_IDENT_RE.findall(text))
    return tokens
