"""Lint runner: walk sources, run rules, apply the baseline, format.

``lint_repo(root)`` is the whole pipeline behind ``repro lint``:

1. discover Python files (``src/repro`` by default),
2. build the whole-program model via
   :func:`repro.analysis.project.build_project` — every file is parsed
   exactly once there, and the resulting
   :class:`~repro.analysis.project.ProjectGraph` feeds the
   cross-module rules,
3. run every applicable :class:`~repro.analysis.base.FileRule` in a
   single AST pass per file (each file context carries the project
   backref, so file rules may consult the graph too),
4. run the :class:`~repro.analysis.base.ProjectRule` set over the
   repo-level context (inline ``lint: allow`` comments apply to their
   findings in linted files exactly as they do to file rules),
5. subtract the suppression baseline (and, for ``--changed``, restrict
   the report to the requested paths — the graph stays whole-repo so
   cross-module rules keep seeing everything),
6. return a :class:`LintReport` the CLI renders as text, JSON or SARIF.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .base import (
    FileContext,
    ProjectRule,
    available_rules,
    rule_class,
    run_file_rules,
)
from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
)
from .findings import Finding, Severity
from .project import build_project

__all__ = [
    "LintReport",
    "lint_source",
    "lint_repo",
    "format_findings",
]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    rules_run: Tuple[str, ...]
    suppressed: int = 0
    stale_baseline: List[Tuple[str, str, str]] = field(
        default_factory=list
    )
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [
            f
            for f in [*self.findings, *self.parse_errors]
            if f.severity is Severity.ERROR
        ]

    @property
    def exit_code(self) -> int:
        """Non-zero when errors remain or the baseline has stale
        entries (the baseline must only ever shrink)."""
        return 1 if self.errors or self.stale_baseline else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "suppressed": self.suppressed,
            "stale_baseline": [
                {"rule": r, "path": p, "code": c}
                for r, p, c in self.stale_baseline
            ],
            "findings": [
                f.to_dict()
                for f in sorted(
                    [*self.findings, *self.parse_errors],
                    key=Finding.sort_key,
                )
            ],
        }


def lint_source(
    source: str,
    module: str,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one in-memory snippet as if it lived at ``module``.

    The fixture tests drive single rules through this entry point;
    ``module`` decides which rules consider the snippet in scope.
    """
    tree = ast.parse(source, filename=module)
    ctx = FileContext(module=module, source=source, tree=tree)
    return sorted(
        run_file_rules(ctx, rule_ids), key=Finding.sort_key
    )


def _discover(root: Path, paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_repo(
    root: Union[str, Path],
    paths: Optional[Sequence[Union[str, Path]]] = None,
    rule_ids: Optional[Sequence[str]] = None,
    baseline: Optional[Union[str, Path]] = None,
    use_baseline: bool = True,
    only_paths: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the full rule set over a repo checkout.

    Parameters
    ----------
    root:
        Repository root (the directory holding ``src/`` / ``README.md``).
    paths:
        Files or directories to lint; defaults to ``<root>/src/repro``.
    rule_ids:
        Subset of rules to run (default: all registered).
    baseline:
        Explicit baseline path; defaults to
        ``<root>/lint-baseline.json`` when present.
    use_baseline:
        ``False`` disables suppression entirely (``--no-baseline``).
    only_paths:
        Repo-relative paths to *report on* (``--changed``). The full
        project graph is still built — cross-module rules need the
        whole repo — but findings outside these paths are dropped
        after baseline application. Stale-baseline detection stays
        global, so a shrunk baseline cannot hide behind a narrow diff.
    """
    root = Path(root).resolve()
    targets = (
        [Path(p) if Path(p).is_absolute() else root / p for p in paths]
        if paths
        else [root / "src" / "repro"]
    )
    ids = tuple(rule_ids) if rule_ids is not None else available_rules()

    files = _discover(root, targets)
    project_ctx, parse_errors = build_project(root, files)
    findings: List[Finding] = []
    for ctx in project_ctx.files.values():
        findings.extend(run_file_rules(ctx, ids))

    # project rules bypass the per-file walk where inline
    # ``lint: allow`` comments are honoured — apply them here, once
    for rid in ids:
        cls = rule_class(rid)
        if issubclass(cls, ProjectRule):
            for f in cls().check_project(project_ctx):
                fctx = project_ctx.files.get(f.path)
                if fctx is None or not fctx.suppressed(f.line, rid):
                    findings.append(f)

    findings.sort(key=Finding.sort_key)
    suppressed = 0
    stale: List[Tuple[str, str, str]] = []
    baseline_path = (
        Path(baseline)
        if baseline is not None
        else root / DEFAULT_BASELINE_NAME
    )
    if use_baseline and baseline_path.is_file():
        budget = load_baseline(baseline_path)
        kept, stale = apply_baseline(findings, budget)
        suppressed = len(findings) - len(kept)
        findings = kept
    if only_paths is not None:
        wanted: Set[str] = {
            Path(p).as_posix().lstrip("./") for p in only_paths
        }
        findings = [f for f in findings if f.path in wanted]
        parse_errors = [f for f in parse_errors if f.path in wanted]
    return LintReport(
        findings=findings,
        files_checked=len(files),
        rules_run=ids,
        suppressed=suppressed,
        stale_baseline=stale,
        parse_errors=parse_errors,
    )


def format_findings(report: LintReport, fmt: str = "text") -> str:
    """Render a report for the CLI (``text``, ``json`` or ``sarif``)."""
    if fmt == "json":
        # sort_keys pins byte-stability against dict-insertion-order
        # differences between code paths (findings themselves are
        # already ordered by Finding.sort_key)
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt == "sarif":
        from .sarif import render_sarif

        return render_sarif(report)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r} (text, json or sarif)")
    lines: List[str] = []
    for f in sorted(
        [*report.findings, *report.parse_errors], key=Finding.sort_key
    ):
        lines.append(f.render())
        if f.code:
            lines.append(f"    {f.code}")
    for rule_id, path, code in report.stale_baseline:
        lines.append(
            f"{path}: stale baseline entry [{rule_id}] "
            f"{code!r} no longer matches; remove it "
            "(repro lint --write-baseline)"
        )
    n_err = len(report.errors)
    summary = (
        f"{report.files_checked} files, "
        f"{len(report.rules_run)} rules: "
        + (
            f"{n_err} finding{'s' if n_err != 1 else ''}"
            if n_err
            else "clean"
        )
    )
    if report.suppressed:
        summary += f" ({report.suppressed} baseline-suppressed)"
    lines.append(summary)
    return "\n".join(lines)
