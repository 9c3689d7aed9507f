"""Autofix engine behind ``repro lint --fix``.

Only *mechanical* rules are fixable — rewrites whose correctness does
not depend on intent:

* ``no-unseeded-rng`` — argument-less ``default_rng()`` gains an
  explicit ``0`` seed (a visible, greppable stub the author should
  replace with the experiment's threaded seed);
* ``no-wall-clock`` — attribute-form ``time.time()`` /
  ``time.time_ns()`` become ``time.perf_counter()`` /
  ``time.perf_counter_ns()`` (same shape, monotonic);
* ``event-schema-sync`` — event classes missing from the events
  module's ``__all__`` are appended to the list.
* ``blocking-call-in-async`` — a bare ``time.sleep(...)`` statement
  inside a coroutine becomes ``await asyncio.sleep(...)`` (importing
  ``asyncio`` if needed); only the statement form is rewritten — a
  ``time.sleep`` nested in an expression needs a human.

Design rules that make ``--fix`` safe:

* every fixer re-derives its edit sites from a fresh AST pattern scan
  — nothing is threaded through :class:`~repro.analysis.findings
  .Finding` objects, so a fix can never act on a stale location;
* fixers are **idempotent** by construction: a fixed pattern no longer
  matches the scan (``default_rng(0)`` has an argument,
  ``perf_counter`` is not a banned call, an exported class is in
  ``__all__``), so a second run is a no-op — the regression tests pin
  this;
* inline ``# lint: allow[rule-id]`` suppressions are honoured — a
  deliberately accepted violation is never rewritten;
* ``--fix --dry-run`` renders the unified diff of every would-be edit
  and writes nothing.

This module parses with :func:`ast.parse` directly, *not* through
:func:`repro.analysis.project.parse_module`: fixing is a separate
pipeline from linting, and the single-parse guarantee (and its
parse-count test) covers the lint pipeline only.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .asyncrules import BlockingCallInAsync
from .base import FileContext, module_all
from .cfg import walk_function_body
from .rules import EventSchemaSync, NoUnseededRng, NoWallClock

__all__ = [
    "FIXABLE_RULES",
    "FileFix",
    "FixResult",
    "fix_source",
    "apply_fixes",
]

#: rules ``--fix`` knows how to rewrite, in application order
FIXABLE_RULES: Tuple[str, ...] = (
    "no-unseeded-rng",
    "no-wall-clock",
    "event-schema-sync",
    "blocking-call-in-async",
)

#: single-line text replacement: (1-based line, col start, col end, new)
_Edit = Tuple[int, int, int, str]


@dataclass
class FileFix:
    """One file's rewrite: original text, fixed text, edit count."""

    path: str
    before: str
    after: str
    n_edits: int

    def diff(self) -> str:
        """Unified diff of the rewrite (``a/``/``b/`` prefixes)."""
        lines = difflib.unified_diff(
            self.before.splitlines(keepends=True),
            self.after.splitlines(keepends=True),
            fromfile=f"a/{self.path}",
            tofile=f"b/{self.path}",
        )
        return "".join(lines)


@dataclass
class FixResult:
    """Outcome of one ``apply_fixes`` pass."""

    fixes: List[FileFix]
    files_scanned: int
    dry_run: bool

    @property
    def n_edits(self) -> int:
        return sum(f.n_edits for f in self.fixes)

    def diff(self) -> str:
        return "".join(f.diff() for f in self.fixes)


def _apply_edits(source: str, edits: Sequence[_Edit]) -> str:
    """Apply non-overlapping single-line edits, bottom-up so earlier
    replacements never shift later coordinates."""
    lines = source.splitlines(keepends=True)
    for lineno, start, end, new in sorted(edits, reverse=True):
        line = lines[lineno - 1]
        lines[lineno - 1] = line[:start] + new + line[end:]
    return "".join(lines)


def _fix_unseeded_rng(source: str, module: str) -> Tuple[str, int]:
    """``default_rng()`` -> ``default_rng(0)`` (explicit seed stub)."""
    rule = NoUnseededRng()
    if not rule.applies_to(module):
        return source, 0
    tree = ast.parse(source, filename=module)
    ctx = FileContext(module=module, source=source, tree=tree)
    edits: List[_Edit] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if node.args or node.keywords:
            continue
        dotted = ctx.dotted_name(node.func)
        if dotted != "numpy.random.default_rng":
            continue
        if ctx.suppressed(node.lineno, rule.id):
            continue
        end_line = node.end_lineno or node.lineno
        end_col = node.end_col_offset or 0
        line = ctx.lines[end_line - 1] if end_line <= len(ctx.lines) else ""
        if line[end_col - 2 : end_col] != "()":
            continue  # whitespace inside the parens; leave it to a human
        edits.append((end_line, end_col - 2, end_col, "(0)"))
    return _apply_edits(source, edits), len(edits)


#: banned attribute-form clock call -> monotonic replacement attribute
_CLOCK_REWRITES = {
    "time.time": "perf_counter",
    "time.time_ns": "perf_counter_ns",
}


def _fix_wall_clock(source: str, module: str) -> Tuple[str, int]:
    """``time.time()``/``time.time_ns()`` -> ``time.perf_counter*()``.

    Only attribute-form calls are rewritten: a bare ``time()`` from
    ``from time import time`` would also need its import fixed, which
    is no longer mechanical.
    """
    rule = NoWallClock()
    if not rule.applies_to(module):
        return source, 0
    tree = ast.parse(source, filename=module)
    ctx = FileContext(module=module, source=source, tree=tree)
    edits: List[_Edit] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        replacement = _CLOCK_REWRITES.get(ctx.dotted_name(func) or "")
        if replacement is None:
            continue
        if ctx.suppressed(node.lineno, rule.id):
            continue
        end_line = func.end_lineno or func.lineno
        end_col = func.end_col_offset or 0
        start_col = end_col - len(func.attr)
        line = ctx.lines[end_line - 1] if end_line <= len(ctx.lines) else ""
        if line[start_col:end_col] != func.attr:
            continue  # attribute split over lines; leave it to a human
        edits.append((end_line, start_col, end_col, replacement))
    return _apply_edits(source, edits), len(edits)


def _fix_missing_all(source: str, module: str) -> Tuple[str, int]:
    """Append missing event classes to the events module ``__all__``."""
    rule = EventSchemaSync()
    if not rule.applies_to(module):
        return source, 0
    tree = ast.parse(source, filename=module)
    ctx = FileContext(module=module, source=source, tree=tree)

    found = module_all(tree)
    if found is None:
        return source, 0  # adding a whole __all__ is a design choice
    all_node, exported = found
    assert isinstance(all_node.value, (ast.List, ast.Tuple))

    event_classes = {"EngineEvent"}
    missing: List[str] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        bases = {b.id for b in stmt.bases if isinstance(b, ast.Name)}
        if stmt.name != "EngineEvent" and not (bases & event_classes):
            continue
        event_classes.add(stmt.name)
        if stmt.name in exported:
            continue
        if ctx.suppressed(stmt.lineno, rule.id):
            continue
        missing.append(stmt.name)
    if not missing:
        return source, 0

    lines = source.splitlines(keepends=True)
    value = all_node.value
    if all_node.lineno == (all_node.end_lineno or all_node.lineno):
        # single-line list: splice before the closing bracket
        idx = all_node.lineno - 1
        line = lines[idx]
        close = line.rfind("]" if isinstance(value, ast.List) else ")")
        if close < 0:
            return source, 0
        joined = ", ".join(f'"{name}"' for name in missing)
        sep = ", " if value.elts else ""
        lines[idx] = line[:close] + sep + joined + line[close:]
    elif value.elts:
        # multi-line list: insert after the last element, reusing its
        # indentation
        last = value.elts[-1]
        anchor = (last.end_lineno or last.lineno) - 1
        text = lines[anchor]
        indent = text[: len(text) - len(text.lstrip())]
        inserted = [f'{indent}"{name}",\n' for name in missing]
        lines[anchor + 1 : anchor + 1] = inserted
    else:
        return source, 0
    return "".join(lines), len(missing)


def _fix_blocking_sleep(source: str, module: str) -> Tuple[str, int]:
    """Bare ``time.sleep(...)`` statements in coroutines become
    ``await asyncio.sleep(...)``, importing ``asyncio`` if needed.

    Only the statement form ``time.sleep(x)`` is rewritten — same
    shape, loop-friendly semantics. A sleep nested inside another
    expression (or assigned) is left for a human. Idempotent: the
    rewritten statement is an ``await`` expression, which no longer
    matches the scan.
    """
    rule = BlockingCallInAsync()
    if not rule.applies_to(module):
        return source, 0
    tree = ast.parse(source, filename=module)
    ctx = FileContext(module=module, source=source, tree=tree)
    edits: List[_Edit] = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        # own body only: a sleep inside a nested sync def must not
        # gain an await, and nested async defs are walked separately
        for node in walk_function_body(func):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            if ctx.dotted_name(call.func) != "time.sleep":
                continue
            if ctx.suppressed(node.lineno, rule.id):
                continue
            func_node = call.func
            end_line = func_node.end_lineno or func_node.lineno
            if end_line != func_node.lineno:
                continue  # callee split over lines; leave it to a human
            start = func_node.col_offset
            end = func_node.end_col_offset or start
            line = (
                ctx.lines[end_line - 1]
                if end_line <= len(ctx.lines)
                else ""
            )
            if not line[start:end]:
                continue
            edits.append(
                (end_line, start, end, "await asyncio.sleep")
            )
    if not edits:
        return source, 0
    fixed = _apply_edits(source, edits)
    if "asyncio" not in ctx.imports and "asyncio" not in {
        mod for mod, _ in ctx.from_imports.values()
    }:
        lines = fixed.splitlines(keepends=True)
        anchor = 0
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                anchor = stmt.end_lineno or stmt.lineno
        if anchor == 0 and tree.body:
            first = tree.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                anchor = first.end_lineno or first.lineno
        lines[anchor:anchor] = ["import asyncio\n"]
        fixed = "".join(lines)
    return fixed, len(edits)


_FIXERS: Tuple[Callable[[str, str], Tuple[str, int]], ...] = (
    _fix_unseeded_rng,
    _fix_wall_clock,
    _fix_missing_all,
    _fix_blocking_sleep,
)


def fix_source(source: str, module: str) -> Tuple[str, int]:
    """Run every fixer over one file's text; (new text, edit count)."""
    total = 0
    for fixer in _FIXERS:
        source, n = fixer(source, module)
        total += n
    return source, total


def apply_fixes(
    root: Union[str, Path],
    paths: Optional[Sequence[Union[str, Path]]] = None,
    dry_run: bool = False,
) -> FixResult:
    """Fix every fixable violation under ``root`` (or ``paths``).

    Files that fail to parse are skipped (the lint run reports them);
    with ``dry_run`` nothing is written and the result carries the
    unified diff of every would-be rewrite.
    """
    from .runner import _discover

    root = Path(root).resolve()
    targets = (
        [Path(p) if Path(p).is_absolute() else root / p for p in paths]
        if paths
        else [root / "src" / "repro"]
    )
    fixes: List[FileFix] = []
    files = _discover(root, targets)
    for path in files:
        try:
            module = path.resolve().relative_to(root).as_posix()
        except ValueError:
            module = path.as_posix()
        before = path.read_text(encoding="utf-8")
        try:
            after, n_edits = fix_source(before, module)
        except SyntaxError:
            continue
        if n_edits == 0 or after == before:
            continue
        fixes.append(
            FileFix(
                path=module, before=before, after=after, n_edits=n_edits
            )
        )
        if not dry_run:
            path.write_text(after, encoding="utf-8")
    return FixResult(
        fixes=fixes, files_scanned=len(files), dry_run=dry_run
    )
