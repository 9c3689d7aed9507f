"""``repro.analysis`` — repo-specific static analysis.

A rule-plugin framework (:mod:`base`) plus the invariant rules
(:mod:`rules`) that mechanically lock in what the reproduction's
claims depend on: bit-determinism (no unseeded RNG, no wall-clock
reads in simulated code), numeric safety (no float equality), and
schema/doc coherence (every event class exported, committed bench
payloads and profiler phases documented). On top of the per-file pass
sits a whole-program model (:mod:`project`): every repo lint builds a
symbol table, import records and one on-demand call resolver — parsed
exactly once — feeding the cross-module rules (unit consistency, dead
public API).

Since PR 8 the engine is also *flow-sensitive*: per-function
control-flow graphs (:mod:`cfg` — basic blocks, branch/loop/try edges,
``await`` suspension points) and a forward-dataflow worklist solver
(:mod:`dataflow`) power the async-safety rule pack (:mod:`asyncrules`)
that keeps the :mod:`repro.serve` control plane honest: blocking calls
reachable from coroutines, coroutines never awaited, locks held across
suspension points, leaked tasks, and fleet-column writes outside the
registry's ownership seam.

Determinism is checked by running, not proved here:
``tests/test_live_determinism.py`` replays every event producer in two
interpreters (hash seed, host clocks and the legacy global RNG
perturbed) and compares the captures byte for byte, and a property test
calls every registered scheduler repeatedly and compares what it can
reach before and after. What stays static is the banned *call sites*
(unseeded RNG, wall clock, ``os.environ`` outside the entry layers).

The one interprocedural pass (blocking-reach) stands on one spine in
:mod:`project`: one function table, one call resolver and one summary
engine (:class:`~repro.analysis.project.Summaries`) that makes every
summary the least fixed point over the call graph — exact on
recursion, independent of who asked first.

``repro lint`` is the CLI shell around
:func:`~repro.analysis.runner.lint_repo`; ``--format sarif`` exports
GitHub-code-scanning-ready SARIF (:mod:`sarif`), ``--fix`` applies the
idempotent edits the mechanical rules attach to their findings
(:mod:`fixes`), and findings can be
suppressed per line (``# lint: allow[rule-id]``) or via the checked-in
baseline (:mod:`baseline`). See ``docs/static-analysis.md``.
"""

from . import asyncrules  # register the async-safety rule pack
from . import rules  # register the built-in rule set
from .base import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    Rule,
    available_rules,
    rule,
    rule_class,
    run_file_rules,
)
from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .cfg import (
    CFG,
    BasicBlock,
    Edge,
    build_cfg,
    iter_function_cfgs,
)
from .dataflow import (
    ForwardAnalysis,
    MaySuspend,
    ReachingDefinitions,
    solve_forward,
    unit_facts,
)
from .findings import Finding, Severity
from .fixes import FIXABLE_RULES, FixResult, apply_fixes, fix_source
from .project import (
    ProjectGraph,
    build_project,
    set_parse_listener,
)
from .runner import LintReport, format_findings, lint_repo, lint_source
from .sarif import render_sarif, sarif_payload

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "FileRule",
    "ProjectRule",
    "FileContext",
    "ProjectContext",
    "rule",
    "rule_class",
    "available_rules",
    "run_file_rules",
    "ProjectGraph",
    "build_project",
    "set_parse_listener",
    "CFG",
    "BasicBlock",
    "Edge",
    "build_cfg",
    "iter_function_cfgs",
    "ForwardAnalysis",
    "MaySuspend",
    "ReachingDefinitions",
    "solve_forward",
    "unit_facts",
    "LintReport",
    "lint_repo",
    "lint_source",
    "format_findings",
    "render_sarif",
    "sarif_payload",
    "FIXABLE_RULES",
    "FixResult",
    "apply_fixes",
    "fix_source",
    "DEFAULT_BASELINE_NAME",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]
