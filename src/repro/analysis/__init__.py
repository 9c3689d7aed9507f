"""``repro.analysis`` — repo-specific static analysis.

A rule-plugin framework (:mod:`base`) plus the invariant rules
(:mod:`rules`) that mechanically lock in what the reproduction's
claims depend on: bit-determinism (no unseeded RNG, no wall-clock
reads in simulated code), numeric safety (no float equality), and
schema/doc coherence (event taxonomy vs. telemetry, scheduler registry
vs. README/tests). On top of the per-file pass sits a whole-program
model (:mod:`project`): every repo lint builds a symbol table, import
graph and approximate call graph — parsed exactly once — feeding the
cross-module rules (event-dispatch exhaustiveness, scheduler contract,
unit consistency, dead public API).

Since PR 8 the engine is also *flow-sensitive*: per-function
control-flow graphs (:mod:`cfg` — basic blocks, branch/loop/try edges,
``await`` suspension points) and a forward-dataflow worklist solver
(:mod:`dataflow`) power the async-safety rule pack (:mod:`asyncrules`)
that keeps the :mod:`repro.serve` control plane honest: blocking calls
reachable from coroutines, coroutines never awaited, locks held across
suspension points, leaked tasks, and fleet-column writes outside the
registry's ownership seam.

PR 10 adds *interprocedural* determinism tracking: a taint lattice
(:mod:`taint` — host-time / RNG / env / ``id()`` / set-iteration-order
sources, propagated through assignments, containers and call-site
summaries) and purity inference (:mod:`purity` — mutated non-local
locations with alias tracking) feed the nondeterminism rule pack
(:mod:`taintrules`): host-clock and unseeded-RNG values escaping into
the event stream, ``os.environ`` reads outside the entry layers, and
the ``impure-scheduler`` certificate that every registered
``Scheduler.schedule`` is a pure function of its arguments. Findings
carry the full propagation chain (``clock.now -> _lag_s ->
Heartbeat.lag_s``) in text output and SARIF ``codeFlows``.

The three interprocedural passes (blocking-reach, taint, purity) share
one spine in :mod:`project`: one function table, one call resolver
and one summary engine (:class:`~repro.analysis.project.Summaries`)
that makes every summary the least fixed point over the call graph —
exact on recursion, independent of who asked first.

``repro lint`` is the CLI shell around
:func:`~repro.analysis.runner.lint_repo`; ``--format sarif`` exports
GitHub-code-scanning-ready SARIF (:mod:`sarif`), ``--fix`` applies the
idempotent mechanical rewrites (:mod:`fixes`), and findings can be
suppressed per line (``# lint: allow[rule-id]``) or via the checked-in
baseline (:mod:`baseline`). See ``docs/static-analysis.md``.
"""

from . import asyncrules  # register the async-safety rule pack
from . import rules  # register the built-in rule set
from . import taintrules  # register the determinism-taint rule pack
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
from .findings import Finding, FlowStep, Severity
from .fixes import FIXABLE_RULES, FixResult, apply_fixes, fix_source
from .project import (
    ModuleInfo,
    ProjectGraph,
    build_project,
    set_parse_listener,
)
from .purity import PurityIndex, PuritySummary, purity_index_for
from .taint import (
    FnTaint,
    TaintEngine,
    TaintFlow,
    class_attr_taints,
    summaries_for,
)
from .runner import LintReport, format_findings, lint_repo, lint_source
from .sarif import render_sarif, sarif_payload

__all__ = [
    "Finding",
    "FlowStep",
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
    "ModuleInfo",
    "ProjectGraph",
    "build_project",
    "set_parse_listener",
    "FnTaint",
    "TaintEngine",
    "TaintFlow",
    "class_attr_taints",
    "summaries_for",
    "PurityIndex",
    "PuritySummary",
    "purity_index_for",
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
