"""Determinism rules driven by the taint/purity engines.

Four rules close the gap the AST-only determinism rules left open —
a nondeterministic value that is *legal at its source* (host timing in
a profiler, a seeded RNG's seed material, an entry-layer env read) but
escapes into a domain that must replay bit-identically:

* ``host-time-taint`` — host-clock values must not reach the event
  stream (``EngineEvent`` constructor fields, ``.emit(...)``) or
  virtual-clock arithmetic (``clock_s`` assignments). Fields ending
  ``_ms`` are the repo's documented host-milliseconds convention
  (``ScheduleComputed.solve_ms``) and stay legal;
  ``repro.obs.prof``, ``repro.perf`` and the CLI are sanctioned
  host-timing domains and exempt wholesale.
* ``rng-taint-escape`` — values drawn from an *unseeded* RNG must not
  reach the event stream or the model registry (``.commit(...)``).
  Seeded-generator construction sanitizes: ``default_rng(cfg.seed)``
  carries only the seed's taint.
* ``impure-scheduler`` — every ``@register``-ed
  :class:`~repro.sched.base.Scheduler`'s ``schedule()`` must be pure
  (no ``self``/global/argument mutation, inferred interprocedurally by
  :mod:`repro.analysis.purity`). This is the certificate the planned
  cost-curve cache relies on to reuse schedules across rounds.
* ``env-dependent-config`` — ``os.environ`` may only be read in the
  CLI/serve entry layers, and even there the value must not flow into
  the event stream.

The flow-sensitive pass (:class:`~repro.analysis.taint.TaintFlow`)
runs only on functions that actually contain a sink, over the shared
per-file CFG cache, so the whole-repo lint stays within its perf
budget. Findings carry the full propagation chain
(``time.perf_counter -> t0 -> Heartbeat.lag_s``) in
:attr:`~repro.analysis.findings.Finding.flow`, rendered in text output
and exported as SARIF ``codeFlows``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .base import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    dotted_text,
    rule,
)
from .cfg import build_cfg, walk_function_body, WithExit
from .dataflow import solve_forward, unit_facts
from .findings import Finding, FlowStep
from .purity import project_purity_index
from .rules import _project_finding, _registered_schedulers
from .taint import (
    ENV,
    HOST_TIME,
    RNG,
    Chain,
    TaintEngine,
    TaintFlow,
    TaintMap,
    _extend,
    _unit_expr_roots,
    class_attr_taints,
)

__all__ = [
    "HostTimeTaint",
    "RngTaintEscape",
    "ImpureScheduler",
    "EnvDependentConfig",
]

#: sanctioned host-timing domains: profiling, perf harness plumbing,
#: the CLI (its summaries print host timings), and the wall-clock seam
_HOST_TIME_EXEMPT = (
    "src/repro/obs/prof.py",
    "src/repro/cli.py",
    "src/repro/serve/clock.py",
)
_HOST_TIME_EXEMPT_PREFIXES = ("src/repro/perf/",)

#: the only modules allowed to read process configuration from the
#: environment: process entry points, before the deterministic core
_ENV_ENTRY_LAYERS = (
    "src/repro/cli.py",
    "src/repro/__main__.py",
    "src/repro/serve/app.py",
)

_ENV_READS = frozenset({"os.environ", "os.getenv", "os.environ.get"})


# -- shared per-file flow cache ----------------------------------------------


#: (engine, solved flow, [(entry fact, unit)]) of one function
_Flow = Tuple[TaintEngine, TaintFlow, List[Tuple[object, object]]]


def _flow_for(
    ctx: FileContext, func: ast.AST, owner: Optional[str]
) -> _Flow:
    """(engine, solved flow, [(entry fact, unit)]) for one function.

    Cached on the :class:`FileContext` so the three taint rules share
    one CFG build and one fixed point per sink-bearing function; the
    lattice tracks every taint kind at once, rules filter at sinks.
    """

    def solve() -> _Flow:
        engine = TaintEngine(ctx, owner)
        seeds = (
            _class_seeds(ctx, owner, engine) if owner is not None else {}
        )
        flow = TaintFlow(engine, seed_names=seeds)
        cfg = build_cfg(func)
        entry = solve_forward(cfg, flow)
        units: List[Tuple[object, object]] = []
        for block in cfg.blocks:
            units.extend(
                unit_facts(flow, cfg, block.idx, entry[block.idx])
            )
        return (engine, flow, units)

    return ctx.memo(f"taint-flow:{id(func)}", solve)


def _class_seeds(
    ctx: FileContext, owner: str, engine: TaintEngine
) -> Dict[str, TaintMap]:
    """Tainted ``self.<attr>`` bindings of the owning class (cached)."""

    def sweep() -> Dict[str, TaintMap]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == owner:
                return class_attr_taints(ctx, stmt, engine.summaries)
        return {}

    return ctx.memo(f"class-seeds:{owner}", sweep)


# -- sink discovery ----------------------------------------------------------


@dataclass(frozen=True)
class _Sink:
    call: ast.Call
    kind: str  # "emit" | "event" | "commit"
    name: str  # display label ("bus.emit", "Heartbeat", ...)


def _event_class_names(ctx: FileContext) -> FrozenSet[str]:
    """Class names (last components) of every ``EngineEvent`` subclass
    visible to this file — graph-wide on repo runs, locally declared or
    events-imported names on single-file runs."""
    project = ctx.project
    if project is not None and project.graph is not None:
        graph = project.graph
        return project.memo(
            "event-class-names",
            lambda: frozenset(
                cls.name
                for info in graph.modules.values()
                for cls in info.classes.values()
                if cls.name != "EngineEvent"
                and graph.inherits_from(info.name, cls, "EngineEvent")
            ),
        )
    # single-file degraded mode: textual base chains + events imports
    bases: Dict[str, Tuple[str, ...]] = {}
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.ClassDef):
            bases[stmt.name] = tuple(
                t for t in (dotted_text(b) for b in stmt.bases) if t
            )
    names = set()
    for alias, (mod, orig) in ctx.from_imports.items():
        if mod.rsplit(".", 1)[-1] == "events":
            names.add(alias)
            names.add(orig)
    changed = True
    while changed:
        changed = False
        for cls, cls_bases in bases.items():
            if cls in names:
                continue
            for base in cls_bases:
                last = base.rsplit(".", 1)[-1]
                if last == "EngineEvent" or last in names:
                    names.add(cls)
                    changed = True
                    break
    names.discard("EngineEvent")
    return frozenset(names)


def _collect_sinks(
    ctx: FileContext,
    func: ast.AST,
    *,
    commit: bool,
) -> List[_Sink]:
    events = _event_class_names(ctx)
    sinks: List[_Sink] = []
    for node in walk_function_body(func):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "emit":
                sinks.append(
                    _Sink(node, "emit", dotted_text(node.func) or "emit")
                )
                continue
            if commit and node.func.attr == "commit":
                sinks.append(
                    _Sink(node, "commit", dotted_text(node.func) or "commit")
                )
                continue
        last = (dotted_text(node.func) or "").rsplit(".", 1)[-1]
        if last and last in events:
            sinks.append(_Sink(node, "event", last))
    return sinks


def _fact_taint(
    flow: TaintFlow, fact: FrozenSet[Tuple[str, str]], text: str, kind: str
) -> Optional[Chain]:
    """Taint of ``text`` *or any field under it* in one fact — catches
    ``ev.lag_s = tainted`` followed by ``bus.emit(ev)``, which the
    field-sensitive name lookup deliberately keeps separate."""
    prefix = text + "."
    for name, k in sorted(fact):
        if k == kind and (name == text or name.startswith(prefix)):
            return flow.chains.get(
                (name, k), (FlowStep(name, flow.engine.ctx.module),)
            )
    return None


class _TaintSinkRule(FileRule):
    """Shared flow machinery of the host-time / rng / env rules."""

    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    #: taint kind this rule reports
    kind = ""
    #: whether ``.commit(...)`` (model registry) is a sink
    commit_sink = False
    #: whether ``clock_s`` assignments are a sink
    clock_sink = False
    #: whether event-constructor kwargs ending ``_ms`` are sanctioned
    ms_carveout = False

    def sink_message(self, sink_desc: str) -> str:
        raise NotImplementedError

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        sinks = _collect_sinks(ctx, node, commit=self.commit_sink)
        if not sinks and not (
            self.clock_sink and self._has_clock_store(node)
        ):
            return
        owner = ctx.owner_class_of(node)
        engine, flow, units = _flow_for(ctx, node, owner)
        by_id = {id(s.call): s for s in sinks}
        for fact, unit in units:
            if isinstance(unit, WithExit):
                continue
            if self.clock_sink:
                yield from self._check_clock_store(
                    unit, fact, engine, flow, ctx
                )
            for root in _unit_expr_roots(unit):
                for sub in walk_function_body(root):
                    sink = by_id.get(id(sub))
                    if sink is not None:
                        yield from self._check_sink(
                            sink, fact, engine, flow, ctx
                        )

    # -- clock_s assignments ----------------------------------------------
    @staticmethod
    def _clock_stores(node: object) -> List[str]:
        """Written ``…clock_s`` targets of one assignment statement."""
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return []
        texts = (dotted_text(target) for target in targets)
        return [
            t for t in texts if t and t.rsplit(".", 1)[-1] == "clock_s"
        ]

    def _has_clock_store(self, func: ast.AST) -> bool:
        return any(
            self._clock_stores(node) for node in walk_function_body(func)
        )

    def _check_clock_store(
        self, unit, fact, engine: TaintEngine, flow: TaintFlow, ctx
    ) -> Iterator[Finding]:
        for text in self._clock_stores(unit):
            value = unit.value
            if value is None:
                return
            taint = engine.expr_taint(value, flow.lookup_for(fact))
            chain = taint.get(self.kind)
            if chain is None:
                continue
            yield self._finding(
                ctx,
                value,
                chain,
                f"{text} (virtual-clock state)",
                FlowStep(text, ctx.module, unit.lineno),
            )

    # -- call sinks ---------------------------------------------------------
    def _check_sink(
        self,
        sink: _Sink,
        fact,
        engine: TaintEngine,
        flow: TaintFlow,
        ctx: FileContext,
    ) -> Iterator[Finding]:
        lookup = flow.lookup_for(fact)
        call = sink.call
        events = _event_class_names(ctx)
        checked: List[Tuple[ast.expr, str]] = []
        if sink.kind == "event":
            for arg in call.args:
                checked.append((arg, f"{sink.name}(...)"))
            for kw in call.keywords:
                if kw.arg is None:
                    checked.append((kw.value, f"{sink.name}(**...)"))
                    continue
                if self.ms_carveout and kw.arg.endswith("_ms"):
                    continue  # documented host-milliseconds fields
                checked.append((kw.value, f"{sink.name}.{kw.arg}"))
        else:
            for arg in [*call.args, *[k.value for k in call.keywords]]:
                # an event constructor passed inline is its own sink
                if (
                    isinstance(arg, ast.Call)
                    and (dotted_text(arg.func) or "").rsplit(".", 1)[-1]
                    in events
                ):
                    continue
                checked.append((arg, f"{sink.name}(...)"))
        for arg, desc in checked:
            chain = self._arg_taint(arg, lookup, fact, flow, engine)
            if chain is None:
                continue
            yield self._finding(
                ctx,
                arg,
                chain,
                desc,
                FlowStep(desc, ctx.module, call.lineno),
            )

    def _arg_taint(
        self, arg, lookup, fact, flow: TaintFlow, engine: TaintEngine
    ) -> Optional[Chain]:
        taint = engine.expr_taint(arg, lookup)
        chain = taint.get(self.kind)
        if chain is not None:
            return chain
        text = dotted_text(arg)
        if text is not None:
            return _fact_taint(flow, fact, text, self.kind)
        return None

    def _finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        chain: Chain,
        sink_desc: str,
        sink_step: FlowStep,
    ) -> Finding:
        full = _extend(chain, sink_step)
        base = ctx.finding(
            self.id,
            node,
            self.sink_message(sink_desc)
            + f" (flow: {' -> '.join(s.label for s in full)})",
        )
        return replace(base, flow=full)


@rule("host-time-taint")
class HostTimeTaint(_TaintSinkRule):
    """Host-clock values must stay out of the simulated domain.

    The AST rule ``no-wall-clock`` bans the *call sites*; this rule
    follows the *values*: a ``time.perf_counter()`` read is fine for
    measuring host cost, but the moment it reaches an event field, an
    ``emit``, or ``clock_s`` arithmetic, replays stop being
    bit-identical. ``_ms``-suffixed event fields are the sanctioned
    host-milliseconds convention and exempt, as are the profiling /
    perf / CLI domains wholesale.
    """

    description = (
        "host-clock value flows into the event stream or "
        "virtual-clock state"
    )
    kind = HOST_TIME
    clock_sink = True
    ms_carveout = True

    def applies_to(self, module: str) -> bool:
        if not module.startswith("src/repro/"):
            return False
        if module in _HOST_TIME_EXEMPT:
            return False
        return not any(
            module.startswith(p) for p in _HOST_TIME_EXEMPT_PREFIXES
        )

    def sink_message(self, sink_desc: str) -> str:
        return (
            f"host-clock value reaches {sink_desc} — events and "
            "virtual-clock state must derive from simulated time "
            "(use the engine clock, or an `_ms`-suffixed host-cost "
            "field)"
        )


@rule("rng-taint-escape")
class RngTaintEscape(_TaintSinkRule):
    """Unseeded-RNG values must not reach events or the registry.

    ``no-unseeded-rng`` bans the draw; this rule catches the draw
    *laundered through helpers and state* before landing in an
    ``EngineEvent`` field, ``.emit(...)``, or a model-registry
    ``.commit(...)``. Constructing a generator *with* a seed is the
    sanitizer: ``default_rng(cfg.seed)`` carries only the seed's
    taint.
    """

    description = (
        "value from an unseeded RNG flows into the event stream or "
        "model registry"
    )
    kind = RNG
    commit_sink = True

    def applies_to(self, module: str) -> bool:
        return module.startswith("src/repro/")

    def sink_message(self, sink_desc: str) -> str:
        return (
            f"unseeded-RNG value reaches {sink_desc} — derive it "
            "from a seeded Generator (e.g. default_rng(seed)) so "
            "replays are bit-identical"
        )


@rule("env-dependent-config")
class EnvDependentConfig(_TaintSinkRule):
    """``os.environ`` reads belong to the process entry layers.

    Configuration must enter the deterministic core as explicit
    arguments: an env read inside engine/sched/fleet code makes runs
    machine-dependent in a way no seed captures. Entry layers (CLI,
    ``__main__``, serve app bootstrap) may read the environment, but
    even there the value must not flow into the event stream.
    """

    description = (
        "environment variable read outside the CLI/serve entry "
        "layers (or flowing into the event stream)"
    )
    kind = ENV
    node_types = (
        ast.FunctionDef,
        ast.AsyncFunctionDef,
        ast.Attribute,
        ast.Name,
    )

    def applies_to(self, module: str) -> bool:
        return module.startswith("src/repro/")

    def sink_message(self, sink_desc: str) -> str:
        return (
            f"environment-derived value reaches {sink_desc} — "
            "runtime behaviour must not depend on os.environ"
        )

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # env taint must stay out of the event stream everywhere,
            # entry layers included
            yield from super().check(node, ctx)
            return
        if ctx.module in _ENV_ENTRY_LAYERS:
            return
        if isinstance(node, ast.Attribute):
            resolved = ctx.dotted_name(node)
            # `os.environ.get` also contains an `os.environ` child
            # node — flag only the innermost read so each site
            # reports once
            if resolved in ("os.environ", "os.getenv"):
                yield ctx.finding(
                    self.id,
                    node,
                    f"`{resolved}` read outside the entry layers — "
                    "pass configuration in explicitly (CLI flag or "
                    "constructor argument)",
                )
        elif isinstance(node, ast.Name):
            # `from os import getenv, environ` spellings
            if node.id not in ctx.from_imports:
                return
            resolved = ctx.dotted_name(node)
            if resolved in _ENV_READS:
                yield ctx.finding(
                    self.id,
                    node,
                    f"`{resolved}` read outside the entry layers — "
                    "pass configuration in explicitly (CLI flag or "
                    "constructor argument)",
                )


@rule("impure-scheduler")
class ImpureScheduler(ProjectRule):
    """Registered ``Scheduler.schedule`` implementations must be pure.

    The comparison harness wants to cache cost curves and reuse
    schedules across rounds; that is only sound when ``schedule()`` is
    a function of its arguments — no writes to ``self``, no module
    globals, no mutation of the round state it receives. Purity is
    inferred interprocedurally (``schedule`` delegating to a helper
    that appends to ``self._hist`` is caught two hops away) and the
    certificate is exact per key on every call the graph resolves —
    mutual recursion included, whichever scheduler is checked first;
    calls the graph cannot resolve are assumed pure, so it can have
    false negatives but never blocks legitimate schedulers.
    """

    description = (
        "registered Scheduler.schedule mutates self/global/argument "
        "state (breaks schedule caching)"
    )

    def check_project(
        self, ctx: ProjectContext
    ) -> Iterable[Finding]:
        graph = ctx.graph
        if graph is None:
            return
        index = project_purity_index(ctx)
        for info, cls in _registered_schedulers(graph):
            found = graph.find_method(info.name, cls, "schedule")
            if found is None:
                continue  # scheduler-contract already reports this
            def_mod, def_cls, fn = found
            key = f"{def_mod.name}.{def_cls.name}.schedule"
            summary = index.get(key)
            if summary.is_pure:
                continue
            described = ", ".join(
                _describe_effect(e) for e in sorted(summary.effects)
            )
            first = sorted(summary.effects)[0]
            chain = summary.chain_for(first)
            f = _project_finding(
                ctx,
                self.id,
                def_mod.path,
                fn.lineno,
                f"registered scheduler {cls.name}: schedule() must "
                f"be pure to certify schedule caching, but it "
                f"{described}"
                + (
                    f" (flow: "
                    f"{' -> '.join(s.label for s in chain)})"
                    if chain
                    else ""
                ),
            )
            yield replace(f, flow=chain)


def _describe_effect(effect: Tuple[str, str]) -> str:
    kind, detail = effect
    if kind == "self":
        return f"writes self.{detail}"
    if kind == "global":
        return f"mutates module global {detail}"
    return f"mutates argument {detail}"
