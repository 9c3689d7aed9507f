"""Rule-plugin framework of the :mod:`repro.analysis` linter.

Mirrors the :mod:`repro.sched` registry idiom: rules are classes that
self-register under a stable kebab-case id::

    @rule("no-wall-clock")
    class NoWallClock(FileRule):
        node_types = (ast.Call,)
        def check(self, node, ctx): ...

Two rule shapes exist:

* :class:`FileRule` — per-file AST checks. The runner parses each file
  **once** and walks the tree **once**; every node is dispatched to the
  rules that declared interest in its type (``node_types``), so adding
  rules does not add passes. Rules are instantiated fresh per file and
  may keep per-file state between ``check`` calls (the event-schema
  rule accumulates ``kind`` strings this way) and flush it in
  :meth:`FileRule.finish`.
* :class:`ProjectRule` — whole-repo checks that correlate sources with
  non-Python artifacts (README tables, test layout). They receive a
  :class:`ProjectContext` after the per-file pass.

Inline suppressions: appending ``# lint: allow[rule-id]`` to a line
silences that rule on that line (use sparingly; prefer fixing or the
checked-in baseline — see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    cast,
)

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import ProjectGraph

__all__ = [
    "dotted_text",
    "FileContext",
    "ProjectContext",
    "Rule",
    "FileRule",
    "ProjectRule",
    "rule",
    "rule_class",
    "available_rules",
    "run_file_rules",
]

#: matches ``# lint: allow[rule-a, rule-b]`` trailing comments
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([a-z0-9_,\s-]+)\]")

T = TypeVar("T")


def dotted_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` source text of a Name/Attribute chain (else None)."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


class _Memoizing:
    """The one per-run cache of a context: derived structures (summary
    engines, CFG solutions, token indices) are built on first use and
    live exactly as long as the context they were derived from."""

    _memo: Dict[str, Any]

    def memo(self, name: str, build: Callable[[], T]) -> T:
        """``build()`` once per context under ``name``, then the same
        object on every later call."""
        if name not in self._memo:
            self._memo[name] = build()
        return cast(T, self._memo[name])


@dataclass
class FileContext(_Memoizing):
    """Everything a :class:`FileRule` may consult about one file.

    ``module`` is the repo-relative posix path (``src/repro/cli.py``)
    used for rule scoping; fixture tests override it to pretend a
    snippet lives at an arbitrary location. ``imports`` maps local
    names to the dotted module they are bound to (``np`` ->
    ``numpy``), collected up-front so call-site rules can resolve
    aliased references without a second pass. ``project`` is the
    repo-level :class:`ProjectContext` when the file was parsed as part
    of a whole-repo run (rule API v2: file rules may consult the
    project graph for cross-module checks); ``None`` for single-snippet
    lints, where cross-module checks must degrade gracefully.
    """

    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    project: Optional["ProjectContext"] = None
    _memo: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        if not self.imports and not self.from_imports:
            self._collect_imports()

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        # `import a.b` binds `a`; the written attribute
                        # chain already spells the submodule, so mapping
                        # `a -> a.b` would duplicate the `b` segment.
                        head = alias.name.split(".")[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    # -- helpers rules use -------------------------------------------------
    def line_text(self, lineno: int) -> str:
        """Stripped source text of a 1-based line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule_id: str) -> bool:
        """Whether the line carries ``# lint: allow[rule_id]``."""
        m = _ALLOW_RE.search(self.line_text(lineno))
        if not m:
            return False
        allowed = {part.strip() for part in m.group(1).split(",")}
        return rule_id in allowed

    def owner_class_of(self, func: ast.AST) -> Optional[str]:
        """Name of the top-level class whose body holds ``func``, if any."""
        for stmt in self.tree.body:
            if isinstance(stmt, ast.ClassDef) and any(
                sub is func for sub in stmt.body
            ):
                return stmt.name
        return None

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute/name chain to a canonical dotted path.

        Local aliases are expanded through the import table:
        ``np.random.rand`` -> ``numpy.random.rand``; ``rnd.random``
        after ``import random as rnd`` -> ``random.random``; a bare
        name imported via ``from x import y`` -> ``x.y``.
        """
        text = dotted_text(node)
        if text is None:
            return None
        head, dot, rest = text.partition(".")
        if head in self.imports:
            head = self.imports[head]
        elif head in self.from_imports:
            head = ".".join(self.from_imports[head])
        return f"{head}{dot}{rest}"

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule_id,
            path=self.module,
            line=line,
            col=col,
            message=message,
            severity=severity,
            code=self.line_text(line),
        )


#: directories scanned (as text, never parsed) for inbound references
#: by the dead-public-api rule
REFERENCE_DIRS = ("tests", "examples", "benchmarks")


@dataclass
class ProjectContext(_Memoizing):
    """Repo-level view handed to :class:`ProjectRule` instances.

    ``graph`` is the whole-program model built by
    :func:`repro.analysis.project.build_project` — symbol table, import
    graph and approximate call graph over every parsed source file.
    Rules must tolerate ``graph is None`` (fixture-driven single-file
    runs construct bare contexts).
    """

    root: Path
    #: per-file contexts of every linted Python file, keyed by module
    files: Dict[str, FileContext] = field(default_factory=dict)
    #: whole-program model (symbol table / import graph / call graph)
    graph: Optional["ProjectGraph"] = None
    _memo: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def read_text(self, relpath: str) -> Optional[str]:
        """Contents of a repo file, or None when absent."""
        path = self.root / relpath
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")

    def glob(self, pattern: str) -> List[Path]:
        return sorted(self.root.glob(pattern))

    def reference_tokens(self) -> Dict[str, FrozenSet[str]]:
        """Identifier tokens per repo file, import/``__all__`` lines
        excluded — the inbound-reference index of the dead-public-api
        rule.

        Covers every parsed source file (token sets come from the
        already-built ASTs — no re-parse) plus, textually, the
        ``tests/``, ``examples/`` and ``benchmarks/`` trees. Built
        lazily once per lint run and cached.
        """
        return self.memo("reference-tokens", self._reference_tokens)

    def _reference_tokens(self) -> Dict[str, FrozenSet[str]]:
        from .project import usage_tokens

        index: Dict[str, FrozenSet[str]] = {}
        for module, ctx in self.files.items():
            index[module] = frozenset(usage_tokens(ctx.source, ctx.tree))
        for sub in REFERENCE_DIRS:
            base = self.root / sub
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                rel = path.relative_to(self.root).as_posix()
                if rel in index:
                    continue
                try:
                    text = path.read_text(encoding="utf-8")
                except OSError:  # pragma: no cover - unreadable file
                    continue
                index[rel] = frozenset(usage_tokens(text, None))
        return index


class Rule(ABC):
    """Base of all rules; concrete classes register via :func:`rule`."""

    #: registry key; assigned by the @rule decorator
    id: str = "unnamed"
    #: one-line description surfaced by ``repro lint --list``/docs
    description: str = ""
    severity: Severity = Severity.ERROR

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs on the given repo-relative path."""
        return True


class FileRule(Rule):
    """Per-file AST rule driven by the shared single-pass visitor."""

    #: AST node classes this rule wants to see
    node_types: Tuple[Type[ast.AST], ...] = ()

    @abstractmethod
    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        """Inspect one node; yield findings."""

    def finish(self, ctx: FileContext) -> Iterable[Finding]:
        """Called once after the walk; flush cross-node state."""
        return ()


class ProjectRule(Rule):
    """Whole-repo rule run after all files were visited."""

    @abstractmethod
    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        """Inspect the repo; yield findings."""


_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(rule_id: str) -> Callable[[Type[Rule]], Type[Rule]]:
    """Class decorator registering a rule under ``rule_id``."""
    key = rule_id.strip().lower()
    if not key:
        raise ValueError("rule id must be non-empty")

    def deco(cls: Type[Rule]) -> Type[Rule]:
        if not issubclass(cls, Rule):
            raise TypeError(f"{cls.__name__} must subclass Rule")
        if key in _REGISTRY and _REGISTRY[key] is not cls:
            raise ValueError(f"rule {key!r} already registered")
        cls.id = key
        _REGISTRY[key] = cls
        return cls

    return deco


def rule_class(rule_id: str) -> Type[Rule]:
    key = rule_id.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown rule {rule_id!r}; available: "
            f"{', '.join(available_rules())}"
        )
    return _REGISTRY[key]


def available_rules() -> Tuple[str, ...]:
    """All registered rule ids, sorted."""
    return tuple(sorted(_REGISTRY))


def run_file_rules(
    ctx: FileContext,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every applicable :class:`FileRule` over one parsed file.

    The tree is walked exactly once; each node is dispatched to the
    rules whose ``node_types`` match. Inline ``lint: allow`` comments
    are honoured here so individual rules never re-implement them.
    """
    ids = rule_ids if rule_ids is not None else available_rules()
    active: List[FileRule] = []
    for rid in ids:
        cls = rule_class(rid)
        if issubclass(cls, FileRule):
            instance = cls()
            if instance.applies_to(ctx.module):
                active.append(instance)
    if not active:
        return []
    findings: List[Finding] = []

    def _keep(f: Finding) -> bool:
        return not ctx.suppressed(f.line, f.rule_id)

    for node in _walk(ctx.tree):
        for r in active:
            if r.node_types and not isinstance(node, r.node_types):
                continue
            findings.extend(f for f in r.check(node, ctx) if _keep(f))
    for r in active:
        findings.extend(f for f in r.finish(ctx) if _keep(f))
    return findings


def _walk(tree: ast.Module) -> Iterator[ast.AST]:
    """Deterministic depth-first, source-order walk of the tree."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
