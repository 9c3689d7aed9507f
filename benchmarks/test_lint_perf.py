"""Wall-time budget for the whole-program linter.

The single-parse project model keeps `repro lint` linear in tree size,
not rule count — even now that every full-repo run builds per-function
CFGs and solves dataflow for the async rule pack, and resolves
blocking-reach summaries (cached once per invocation on the project
context). This pins the full-repo run (project graph + all fourteen
rules, baseline applied)
under the shared :data:`repro.analysis.bench.LINT_BUDGET_S` ceiling so
the lint gate stays cheap enough to run on every CI push and locally
before every commit, and checks the committed ``BENCH_lint.json``
(written by ``repro bench lint``) still matches the schema that
:class:`repro.analysis.bench.LintBench` emits.
"""

import json
import time
from pathlib import Path

from repro.analysis import lint_repo
from repro.analysis.bench import LINT_BUDGET_S, LintBench, RuleTiming

from ._util import run_once

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_full_repo_lint_under_budget(benchmark):
    start = time.perf_counter()
    report = run_once(benchmark, lint_repo, REPO_ROOT)
    elapsed_s = time.perf_counter() - start

    assert report.files_checked > 50
    assert len(report.rules_run) == 14
    assert elapsed_s < LINT_BUDGET_S, (
        f"full-repo lint took {elapsed_s:.2f}s, budget is "
        f"{LINT_BUDGET_S:.0f}s — did a rule add a re-parse or an "
        "O(files^2) pass?"
    )


def test_committed_bench_lint_schema():
    """BENCH_lint.json (from `repro bench lint`) matches the
    LintBench/RuleTiming payload shape and the current rule set."""
    payload = json.loads(
        (REPO_ROOT / "BENCH_lint.json").read_text(encoding="utf-8")
    )
    assert payload["schema"] == 1
    assert payload["git_sha"]
    assert payload["budget_s"] == LINT_BUDGET_S
    assert payload["total_ms"] < LINT_BUDGET_S * 1000.0

    rules = payload["rules"]
    assert len(rules) == 14
    for entry in rules:
        timing = RuleTiming(**entry)  # field names match the payload
        assert timing.ms >= 0.0
        assert timing.findings == 0  # the committed repo lints clean

    bench = LintBench(
        files=payload["files"],
        project_graph_ms=payload["project_graph_ms"],
        rules=[RuleTiming(**e) for e in rules],
        total_ms=payload["total_ms"],
    )
    assert bench.to_payload(payload["git_sha"]) == payload
