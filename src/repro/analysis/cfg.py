"""Per-function control-flow graphs for the flow-sensitive rules.

The AST engine of PRs 3–6 sees structure; it cannot see *order*. The
async-safety rules (:mod:`repro.analysis.asyncrules`) need order: "is
this lock still held when the coroutine suspends?" is a question about
paths, not about node shapes. :func:`build_cfg` lowers one function
body into the classic representation those questions are asked over:

* **basic blocks** — maximal straight-line statement runs. A block may
  end with a *terminator* (the ``if``/``while``/``for``/``with``
  header node that decides where control goes next); the terminator is
  part of the block's transfer sequence (:attr:`BasicBlock.units`), so
  ``for x in xs:`` binds ``x`` exactly where the iteration edge leaves.
* **edges** — labelled ``true``/``false`` (branches), ``loop`` (back
  edges), ``break``/``continue``, ``except``/``finally`` (coarse:
  any block of a ``try`` body may raise into any of its handlers),
  ``return``/``raise`` (into the synthetic exit block) and plain
  ``next`` fall-through.
* **suspension points** — an edge leaving a statement that contains
  ``await`` / ``yield`` / ``yield from`` is marked ``suspends=True``,
  as are the iteration edges of ``async for`` and the enter/exit of
  ``async with``. A *suspension edge* is where the event loop may run
  someone else's code: the precise places the concurrency rules care
  about.

``with`` / ``async with`` bodies are followed by a synthetic
:class:`WithExit` unit so dataflow transfer functions observe the
context-manager release without re-deriving lexical scope. Nested
``def``/``lambda`` bodies are *not* lowered — each function gets its
own CFG (:func:`iter_function_cfgs` walks a whole module that way).

The graph is deliberately approximate where Python is dynamic —
``return`` inside ``try/finally`` edges straight to exit — and every
consumer is a may-analysis, so imprecision errs toward reporting, never
toward silence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "SUSPENSION_NODES",
    "WithExit",
    "Unit",
    "BasicBlock",
    "Edge",
    "CFG",
    "build_cfg",
    "iter_function_cfgs",
    "contains_suspension",
    "walk_function_body",
]

#: AST expression nodes at which a coroutine/generator may suspend
SUSPENSION_NODES = (ast.Await, ast.Yield, ast.YieldFrom)

#: nodes opening a nested scope the CFG must not descend into
NESTED_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class WithExit:
    """Synthetic unit marking the release point of a ``with`` block."""

    node: Union[ast.With, ast.AsyncWith]

    @property
    def lineno(self) -> int:
        return self.node.lineno


#: what a transfer function consumes: a real statement, a branch/loop
#: header acting as a terminator, or a synthetic with-release marker
Unit = Union[ast.stmt, WithExit]


def walk_function_body(node: ast.AST) -> Iterator[ast.AST]:
    """Source-order walk of one scope's own nodes.

    For a function definition that is its body statements (decorators,
    defaults and annotations evaluate in the enclosing scope); for any
    other node, the node itself and everything below it. Nested
    function / lambda / class bodies are never entered — they belong
    to a different CFG. This is the package's one own-body walk.
    """
    roots: Sequence[ast.AST] = (node,)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots = node.body
    stack: List[Iterator[ast.AST]] = [iter(roots)]
    while stack:
        for cur in stack[-1]:
            if not isinstance(cur, NESTED_SCOPES):
                yield cur
                stack.append(ast.iter_child_nodes(cur))
                break
        else:
            stack.pop()


def contains_suspension(node: ast.AST) -> bool:
    """Whether a statement suspends (await/yield outside nested defs)."""
    return any(
        isinstance(sub, SUSPENSION_NODES)
        for sub in walk_function_body(node)
    )


@dataclass
class BasicBlock:
    """One straight-line run of units."""

    idx: int
    label: str
    stmts: List[Unit] = field(default_factory=list)
    #: branch/loop header whose test decides the out-edges, if any
    terminator: Optional[ast.stmt] = None

    @property
    def units(self) -> List[Unit]:
        """Transfer sequence: statements, then the terminator."""
        if self.terminator is not None:
            return [*self.stmts, self.terminator]
        return list(self.stmts)


@dataclass(frozen=True)
class Edge:
    """A labelled control-flow edge between two blocks."""

    src: int
    dst: int
    kind: str
    suspends: bool = False


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, name: str, is_async: bool) -> None:
        self.name = name
        self.is_async = is_async
        self.blocks: List[BasicBlock] = []
        self.edges: List[Edge] = []
        self.entry = self._new_block("entry").idx
        self.exit = self._new_block("exit").idx

    # -- construction ------------------------------------------------------
    def _new_block(self, label: str) -> BasicBlock:
        block = BasicBlock(idx=len(self.blocks), label=label)
        self.blocks.append(block)
        return block

    def _add_edge(
        self, src: int, dst: int, kind: str, suspends: bool = False
    ) -> None:
        edge = Edge(src=src, dst=dst, kind=kind, suspends=suspends)
        if edge not in self.edges:
            self.edges.append(edge)

    # -- queries -----------------------------------------------------------
    def successors(self, idx: int) -> List[Edge]:
        return [e for e in self.edges if e.src == idx]

    def suspension_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.suspends]

    def rpo(self) -> List[int]:
        """Reverse postorder from the entry block (reachable only)."""
        seen: set[int] = set()
        order: List[int] = []

        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            idx, child = stack[-1]
            succ = self.successors(idx)
            if child < len(succ):
                stack[-1] = (idx, child + 1)
                nxt = succ[child].dst
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(idx)
                stack.pop()
        order.reverse()
        return order

    # -- rendering ---------------------------------------------------------
    def dump(self) -> str:
        """Deterministic text rendering, pinned by the golden tests."""
        lines = [
            f"cfg {self.name}{' [async]' if self.is_async else ''}"
        ]
        for block in self.blocks:
            lines.append(f"B{block.idx} <{block.label}>:")
            for stmt in block.stmts:
                lines.append(f"  {_summary(stmt)}")
            if block.terminator is not None:
                lines.append(f"  ? {_summary(block.terminator)}")
            for edge in sorted(
                self.successors(block.idx), key=lambda e: (e.dst, e.kind)
            ):
                mark = " !suspend" if edge.suspends else ""
                lines.append(f"  -> B{edge.dst} [{edge.kind}]{mark}")
        return "\n".join(lines)


_MAX_SUMMARY = 48


def _summary(unit: Unit) -> str:
    if isinstance(unit, WithExit):
        items = ", ".join(
            ast.unparse(item.context_expr) for item in unit.node.items
        )
        return f"<exit with {items}>"
    node = unit
    text: str
    if isinstance(node, ast.If):
        text = f"if {ast.unparse(node.test)}"
    elif isinstance(node, ast.While):
        text = f"while {ast.unparse(node.test)}"
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        kw = "async for" if isinstance(node, ast.AsyncFor) else "for"
        text = (
            f"{kw} {ast.unparse(node.target)} in "
            f"{ast.unparse(node.iter)}"
        )
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        kw = "async with" if isinstance(node, ast.AsyncWith) else "with"
        items = ", ".join(
            ast.unparse(item.context_expr)
            + (
                f" as {ast.unparse(item.optional_vars)}"
                if item.optional_vars is not None
                else ""
            )
            for item in node.items
        )
        text = f"{kw} {items}"
    elif isinstance(node, ast.Try):
        text = "try"
    elif isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        text = f"def {node.name}" if not isinstance(
            node, ast.ClassDef
        ) else f"class {node.name}"
    else:
        text = ast.unparse(node).split("\n", 1)[0]
    if len(text) > _MAX_SUMMARY:
        text = text[: _MAX_SUMMARY - 1] + "…"
    return text


class _Builder:
    """Recursive statement lowering with loop/exit bookkeeping."""

    def __init__(self, func: FunctionNode) -> None:
        self.cfg = CFG(
            name=func.name,
            is_async=isinstance(func, ast.AsyncFunctionDef),
        )
        #: (continue target, break target) per enclosing loop
        self.loops: List[Tuple[int, int]] = []
        self.current = self.cfg.entry

    # -- primitives --------------------------------------------------------
    def _fresh(self, label: str) -> int:
        return self.cfg._new_block(label).idx

    def _goto(
        self, dst: int, kind: str = "next", suspends: bool = False
    ) -> None:
        if self.current >= 0:
            self.cfg._add_edge(self.current, dst, kind, suspends)
        self.current = dst

    def _emit(self, stmt: ast.stmt) -> None:
        """Append a simple statement, splitting at suspension points."""
        block = self.cfg.blocks[self.current]
        block.stmts.append(stmt)
        if contains_suspension(stmt):
            nxt = self._fresh("resume")
            self._goto(nxt, kind="next", suspends=True)

    def _terminate(self, stmt: ast.stmt) -> int:
        """Close the current block with a branch/loop header."""
        block = self.cfg.blocks[self.current]
        if block.terminator is not None:
            fresh = self._fresh("head")
            self._goto(fresh)
            block = self.cfg.blocks[self.current]
        block.terminator = stmt
        return block.idx

    # -- statement lowering ------------------------------------------------
    def lower(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._lower_for(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._lower_with(stmt)
        elif isinstance(stmt, ast.Try):
            self._lower_try(stmt)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            kind = "return" if isinstance(stmt, ast.Return) else "raise"
            self._emit(stmt)
            self.cfg._add_edge(self.current, self.cfg.exit, kind)
            self.current = self._fresh("dead")
        elif isinstance(stmt, ast.Break):
            self._emit(stmt)
            if self.loops:
                self.cfg._add_edge(
                    self.current, self.loops[-1][1], "break"
                )
            self.current = self._fresh("dead")
        elif isinstance(stmt, ast.Continue):
            self._emit(stmt)
            if self.loops:
                self.cfg._add_edge(
                    self.current, self.loops[-1][0], "continue"
                )
            self.current = self._fresh("dead")
        else:
            self._emit(stmt)

    def _lower_if(self, stmt: ast.If) -> None:
        head = self._terminate(stmt)
        after = self._fresh("if.after")

        then_entry = self._fresh("if.then")
        self.cfg._add_edge(head, then_entry, "true")
        self.current = then_entry
        self.lower(stmt.body)
        self.cfg._add_edge(self.current, after, "next")

        if stmt.orelse:
            else_entry = self._fresh("if.else")
            self.cfg._add_edge(head, else_entry, "false")
            self.current = else_entry
            self.lower(stmt.orelse)
            self.cfg._add_edge(self.current, after, "next")
        else:
            self.cfg._add_edge(head, after, "false")
        self.current = after

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._fresh("while.head")
        self._goto(header)
        self.cfg.blocks[header].terminator = stmt
        after = self._fresh("while.after")

        body_entry = self._fresh("while.body")
        self.cfg._add_edge(header, body_entry, "true")
        self.cfg._add_edge(header, after, "false")
        self.loops.append((header, after))
        self.current = body_entry
        self.lower(stmt.body)
        self.cfg._add_edge(self.current, header, "loop")
        self.loops.pop()
        if stmt.orelse:
            # while/else: runs when the loop exits normally; modelled
            # on the false edge path (approximate, may-analysis safe)
            self.current = after
            self.lower(stmt.orelse)
        else:
            self.current = after

    def _lower_for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        is_async = isinstance(stmt, ast.AsyncFor)
        header = self._fresh("for.head")
        self._goto(header)
        self.cfg.blocks[header].terminator = stmt
        after = self._fresh("for.after")

        body_entry = self._fresh("for.body")
        # entering an iteration of `async for` awaits __anext__
        self.cfg._add_edge(header, body_entry, "true", suspends=is_async)
        self.cfg._add_edge(header, after, "false", suspends=is_async)
        self.loops.append((header, after))
        self.current = body_entry
        self.lower(stmt.body)
        self.cfg._add_edge(self.current, header, "loop")
        self.loops.pop()
        if stmt.orelse:
            self.current = after
            self.lower(stmt.orelse)
        else:
            self.current = after

    def _lower_with(
        self, stmt: Union[ast.With, ast.AsyncWith]
    ) -> None:
        is_async = isinstance(stmt, ast.AsyncWith)
        head = self._terminate(stmt)
        body_entry = self._fresh("with.body")
        # `async with` awaits __aenter__ on the way in
        self.cfg._add_edge(head, body_entry, "with", suspends=is_async)
        self.current = body_entry
        self.lower(stmt.body)
        # release: a synthetic unit so transfer functions see the exit;
        # `async with` awaits __aexit__ on the way out
        self.cfg.blocks[self.current].stmts.append(WithExit(stmt))
        after = self._fresh("with.after")
        self._goto(after, kind="next", suspends=is_async)

    def _lower_try(self, stmt: ast.Try) -> None:
        head = self.current
        after = self._fresh("try.after")
        body_entry = self._fresh("try.body")
        self.cfg._add_edge(head, body_entry, "next")

        first_body_block = len(self.cfg.blocks)
        self.current = body_entry
        self.lower(stmt.body)
        body_exit = self.current
        body_blocks = [
            body_entry,
            *range(first_body_block, len(self.cfg.blocks)),
        ]

        finally_entry: Optional[int] = None
        if stmt.finalbody:
            finally_entry = self._fresh("try.finally")
        join = finally_entry if finally_entry is not None else after

        handler_exits: List[int] = []
        for handler in stmt.handlers:
            handler_entry = self._fresh("try.except")
            # coarse: any block of the body may raise into any handler
            for idx in body_blocks:
                if idx < len(self.cfg.blocks):
                    self.cfg._add_edge(idx, handler_entry, "except")
            self.current = handler_entry
            self.lower(handler.body)
            handler_exits.append(self.current)

        if stmt.orelse:
            self.current = body_exit
            self.lower(stmt.orelse)
            body_exit = self.current

        self.cfg._add_edge(body_exit, join, "next")
        for exit_idx in handler_exits:
            self.cfg._add_edge(exit_idx, join, "next")
        if finally_entry is not None:
            self.current = finally_entry
            self.lower(stmt.finalbody)
            self.cfg._add_edge(self.current, after, "finally")
        self.current = after


def build_cfg(func: FunctionNode) -> CFG:
    """Lower one function definition into its control-flow graph."""
    builder = _Builder(func)
    builder.lower(func.body)
    builder.cfg._add_edge(builder.current, builder.cfg.exit, "next")
    return builder.cfg


def iter_function_cfgs(
    tree: ast.AST,
) -> Iterator[Tuple[FunctionNode, CFG]]:
    """(function node, CFG) for every def in a module, nested included.

    Each definition gets its own graph; bodies of nested defs are never
    folded into the enclosing function's blocks.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, build_cfg(node)
