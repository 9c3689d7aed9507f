"""``repro bench lint`` — wall-time trajectory of the lint pipeline.

PR 8 made every full-repo lint build per-function CFGs and run
dataflow solvers on top of the whole-program graph; this module pins
what that costs so the 10 s CI gate (``benchmarks/test_lint_perf.py``)
has a committed baseline to compare against. The payload
(``BENCH_lint.json``) records the project-graph build, each rule's
isolated wall-time over the full repo, and one end-to-end
``lint_repo`` run:

```
{"schema": 1, "git_sha": ..., "files": N, "project_graph_ms": ...,
 "rules": [{"rule": "lock-across-await", "ms": ..., "findings": 0},
           ...],
 "total_ms": ..., "budget_s": 10.0}
```

Per-rule times are measured by running that rule alone over every
file, so each includes one shared AST walk — their sum exceeds
``total_ms``, which walks once for all rules. The numbers locate the
expensive rule when the gate trips; ``total_ms`` is the gated figure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .base import (
    FileRule,
    ProjectRule,
    available_rules,
    rule_class,
    run_file_rules,
)
from .project import build_project
from .runner import lint_repo

__all__ = [
    "LINT_BUDGET_S",
    "RuleTiming",
    "LintBench",
    "bench_lint",
    "format_bench_lint",
    "write_bench_lint",
]

#: the CI gate: one full-repo lint must finish inside this budget
LINT_BUDGET_S = 10.0


@dataclass
class RuleTiming:
    """One rule's isolated full-repo wall-time."""

    rule: str
    ms: float
    findings: int


@dataclass
class LintBench:
    """One benchmark run of the lint pipeline."""

    files: int
    project_graph_ms: float
    rules: List[RuleTiming]
    total_ms: float

    def to_payload(self, sha: str) -> Dict[str, object]:
        return {
            "schema": 1,
            "git_sha": sha,
            "files": self.files,
            "project_graph_ms": self.project_graph_ms,
            "rules": [
                {"rule": t.rule, "ms": t.ms, "findings": t.findings}
                for t in self.rules
            ],
            "total_ms": self.total_ms,
            "budget_s": LINT_BUDGET_S,
        }


def bench_lint(root: Union[str, Path]) -> LintBench:
    """Time the lint pipeline over ``<root>/src/repro``.

    Stage 1 times :func:`~repro.analysis.project.build_project` alone
    (parse + symbol/import/call graphs). Stage 2 runs each registered
    rule in isolation over the already-built project. Stage 3 is one
    cold end-to-end :func:`~repro.analysis.runner.lint_repo` — the
    figure the perf gate compares to the budget.
    """
    from .runner import _discover

    root = Path(root).resolve()
    files = _discover(root, [root / "src" / "repro"])

    t0 = time.perf_counter()
    project_ctx, _ = build_project(root, files)
    project_graph_ms = (time.perf_counter() - t0) * 1000.0

    timings: List[RuleTiming] = []
    for rid in available_rules():
        cls = rule_class(rid)
        t0 = time.perf_counter()
        n_findings = 0
        if issubclass(cls, FileRule):
            for ctx in project_ctx.files.values():
                n_findings += len(run_file_rules(ctx, [rid]))
        elif issubclass(cls, ProjectRule):
            n_findings = len(list(cls().check_project(project_ctx)))
        ms = (time.perf_counter() - t0) * 1000.0
        timings.append(
            RuleTiming(rule=rid, ms=ms, findings=n_findings)
        )

    t0 = time.perf_counter()
    report = lint_repo(root)
    total_ms = (time.perf_counter() - t0) * 1000.0
    return LintBench(
        files=report.files_checked,
        project_graph_ms=project_graph_ms,
        rules=timings,
        total_ms=total_ms,
    )


def format_bench_lint(bench: LintBench) -> str:
    """Terminal table: per-rule ms (sorted slowest first), totals."""
    lines = [
        f"{'rule':34s} {'ms':>9s} {'findings':>9s}",
        "-" * 54,
    ]
    for t in sorted(bench.rules, key=lambda t: -t.ms):
        lines.append(
            f"{t.rule:34s} {t.ms:9.1f} {t.findings:9d}"
        )
    lines.append("-" * 54)
    lines.append(
        f"{'project graph build':34s} {bench.project_graph_ms:9.1f}"
    )
    lines.append(
        f"{'full lint (gated, one walk)':34s} {bench.total_ms:9.1f}"
    )
    lines.append(
        f"{bench.files} files; budget {LINT_BUDGET_S:.0f} s"
    )
    return "\n".join(lines)


def write_bench_lint(
    bench: LintBench,
    path: Union[str, Path],
    sha: Optional[str] = None,
) -> None:
    """Write the ``BENCH_lint.json`` document (schema 1)."""
    from ..perf import git_sha

    payload = bench.to_payload(sha if sha is not None else git_sha())
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
