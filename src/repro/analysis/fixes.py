"""Autofix engine behind ``repro lint --fix``.

Only *mechanical* rules are fixable — rewrites whose correctness does
not depend on intent. Each attaches its edits to the finding it raises
(:attr:`~repro.analysis.findings.Finding.fix`):

* ``no-unseeded-rng`` — argument-less ``default_rng()`` gains an
  explicit ``0`` seed (a visible, greppable stub the author should
  replace with the experiment's threaded seed);
* ``no-wall-clock`` — attribute-form ``time.time()`` /
  ``time.time_ns()`` become ``time.perf_counter()`` /
  ``time.perf_counter_ns()`` (same shape, monotonic);
* ``event-schema-sync`` — event classes missing from the events
  module's ``__all__`` are appended to the list or tuple;
* ``blocking-call-in-async`` — a bare ``time.sleep(...)`` statement
  inside a coroutine becomes ``await asyncio.sleep(...)`` (importing
  ``asyncio`` if needed); only the statement form is rewritten — a
  ``time.sleep`` nested in an expression needs a human.

:func:`fix_source` is :func:`~repro.analysis.runner.lint_source` over
:data:`FIXABLE_RULES` plus applying those edits, so a fix sees exactly
what the lint sees: one parse, the rules' own scope, and inline
``# lint: allow[rule-id]`` suppressions honoured once, by the runner.
Fixes are **idempotent**: a fixed pattern no longer raises its finding
(``default_rng(0)`` has an argument, ``perf_counter`` is not a banned
call, an exported class is in ``__all__``), so a second run is a no-op.
``--fix --dry-run`` renders the unified diff and writes nothing.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .base import source_lines
from .findings import TextEdit
from .runner import _discover, lint_source

__all__ = [
    "FIXABLE_RULES",
    "FileFix",
    "FixResult",
    "fix_source",
    "apply_fixes",
]

#: rules whose findings may carry ``--fix`` edits
FIXABLE_RULES: Tuple[str, ...] = (
    "no-unseeded-rng",
    "no-wall-clock",
    "event-schema-sync",
    "blocking-call-in-async",
)


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
            source_lines(self.before, keepends=True),
            source_lines(self.after, keepends=True),
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


def _apply_edits(source: str, edits: Sequence[TextEdit]) -> str:
    """Apply non-overlapping edits bottom-up, so no replacement shifts
    a later one's coordinates; edits at one anchor land in list order."""
    lines = source_lines(source, keepends=True)
    order = sorted(
        range(len(edits)), key=lambda i: (*edits[i][:2], i), reverse=True
    )
    for i in order:
        lineno, start, end, new = edits[i]
        if lineno > len(lines):
            lines.append("")
        line = lines[lineno - 1].encode()
        lines[lineno - 1] = (line[:start] + new.encode() + line[end:]).decode()
    return "".join(lines)


def fix_source(source: str, module: str) -> Tuple[str, int]:
    """Apply every fixable finding's edits to one file's text; (new
    text, number of findings fixed).

    Raises :class:`SyntaxError` when ``source`` does not parse, and
    :class:`ValueError` naming ``module`` when the fixed text would not.
    """
    fixed = [f for f in lint_source(source, module, FIXABLE_RULES) if f.fix]
    if not fixed:
        return source, 0
    # findings sharing an edit (one import, one comma) apply it once
    edits = list(dict.fromkeys(edit for f in fixed for edit in f.fix))
    after = _apply_edits(source, edits)
    try:
        ast.parse(after, filename=module)
    except SyntaxError as exc:
        raise ValueError(
            f"--fix would leave {module} unparsable (line {exc.lineno}: "
            f"{exc.msg}); nothing written"
        ) from exc
    return after, len(fixed)


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
