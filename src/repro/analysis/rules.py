"""The repo's invariant rules.

Each rule mechanically enforces one reproducibility contract that the
paper's claims rest on (see ``docs/static-analysis.md`` for the full
rationale and the fix recipes):

* ``no-unseeded-rng`` — all randomness flows through explicitly seeded
  :class:`numpy.random.Generator` objects; the legacy global-state APIs
  (``np.random.rand``, stdlib ``random``) and argument-less
  ``default_rng()`` silently break run-to-run determinism.
* ``no-wall-clock`` — the simulation packages answer in *virtual*
  seconds; a stray ``time.time()`` / ``datetime.now()`` couples results
  to the host. ``time.perf_counter`` (monotonic, duration-only) is the
  sanctioned clock for measuring solver/CLI runtime.
* ``no-float-equality`` — ``==`` / ``!=`` on float-valued expressions
  makes tie-breaking depend on rounding; use :func:`math.isclose` /
  :func:`numpy.isclose` or an ordering comparison.
* ``event-schema-sync`` — every event dataclass in
  ``repro/engine/events.py`` carries a unique ``kind`` string, only
  JSON-serialisable fields, and is exported via ``__all__`` (the
  telemetry JSONL schema is exactly these fields).
* ``registry-doc-drift`` — every registered scheduler name appears in
  the README scheduler table and in at least one ``tests/sched``
  module, so docs and coverage cannot drift from the registry.
* ``metric-doc-drift`` — every metric name registered in the
  ``repro.obs`` catalog appears in ``docs/observability.md``, so the
  metric reference cannot drift from the code.
* ``bench-payload-schema`` — every committed ``BENCH_*.json`` carries
  ``schema`` and ``git_sha`` keys (diffable, traceable to a commit),
  and every literal ``PROFILER.phase(...)`` name used in ``src`` is
  documented in ``docs/observability.md``, so the committed
  performance trajectory and the profiler phase table cannot drift.

Four rules are *cross-module*: they consume the whole-program model of
:mod:`repro.analysis.project` (symbol table, import graph, approximate
call graph) instead of a single AST:

* ``event-dispatch-exhaustiveness`` — every event declared in
  ``engine/events.py`` has a handler in ``ObsRecorder``'s one
  ``kind``-keyed table, and no handler (or ``isinstance`` site) names
  an event the taxonomy does not declare.
* ``scheduler-contract`` — every ``@register``-ed scheduler subclasses
  the :class:`~repro.sched.base.Scheduler` ABC, defines or inherits a
  ``schedule(self, problem)`` with the ABC's shape, and lives in the
  import closure of ``bench.compare`` (otherwise its registration
  never runs and the comparison harness silently skips it).
* ``unit-consistency`` — a lightweight dimensional pass over
  unit-suffixed names (``_s``/``_ms``/``_j``/``_mah``/``_soc``):
  adding, comparing or assigning across time↔energy (or s↔ms) is
  flagged, including across call boundaries via the project call
  graph (an ``energy_j`` value flowing into a ``time_s`` parameter).
* ``dead-public-api`` — ``__all__``-exported symbols with no inbound
  reference anywhere in ``src``, ``tests``, ``examples`` or
  ``benchmarks`` (import/re-export lines do not count as uses).

One rule guards the columnar-fleet performance contract:

* ``no-python-loop-over-fleet`` — ``for`` loops and comprehensions in
  the ``engine``/``sched``/``fleet``/``serve`` hot paths (the store
  module itself aside) must not iterate
  :class:`~repro.fleet.store.FleetStore` columns (``battery_j``,
  ``data_size``, results of ``soc()``/``run_compute()``, …) — that is
  an O(n) Python loop over a population designed for 10⁶ devices;
  vectorize with array operations, or annotate a deliberate legacy
  path with ``# lint: allow[no-python-loop-over-fleet]``.
"""

from __future__ import annotations

import ast
import json
import re
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .base import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    dotted_text,
    module_all,
    rule,
)
from .findings import Finding
from .project import ClassInfo, ModuleInfo, ProjectGraph

__all__ = [
    "NoUnseededRng",
    "NoWallClock",
    "NoFloatEquality",
    "EventSchemaSync",
    "RegistryDocDrift",
    "MetricDocDrift",
    "BenchPayloadSchema",
    "EventDispatchExhaustiveness",
    "SchedulerContract",
    "UnitConsistency",
    "DeadPublicApi",
    "NoPythonLoopOverFleet",
]


def _in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    """Whether a repo-relative path sits in one of the given
    ``src/repro`` sub-packages."""
    return any(
        module.startswith(f"src/repro/{pkg}/") for pkg in packages
    )


# ---------------------------------------------------------------------------
# no-unseeded-rng
# ---------------------------------------------------------------------------

#: numpy.random attributes that are fine to touch (Generator-era API)
_NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


@rule("no-unseeded-rng")
class NoUnseededRng(FileRule):
    """Ban global-state RNG APIs and argument-less ``default_rng()``."""

    description = (
        "randomness must come from an explicitly seeded "
        "numpy.random.Generator"
    )
    node_types = (ast.Call,)

    def applies_to(self, module: str) -> bool:
        # the CLI is the seam where user-facing seeds enter; everything
        # under src/repro otherwise is in scope
        return (
            module.startswith("src/repro/")
            and module != "src/repro/cli.py"
            and module.endswith(".py")
        )

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            return
        if dotted.startswith("numpy.random."):
            attr = dotted.split(".")[-1]
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self.id,
                        node,
                        "default_rng() without a seed is entropy-"
                        "seeded; pass an explicit seed or thread a "
                        "Generator through",
                    )
            elif attr == "RandomState" or attr not in _NP_RANDOM_OK:
                yield ctx.finding(
                    self.id,
                    node,
                    f"legacy global-state RNG call numpy.random.{attr};"
                    " use an explicitly seeded "
                    "numpy.random.default_rng(seed) Generator",
                )
        elif dotted.startswith("random.") and self._imports_stdlib_random(
            ctx
        ):
            attr = dotted.split(".", 1)[1]
            yield ctx.finding(
                self.id,
                node,
                f"stdlib random.{attr} uses hidden global state; use "
                "an explicitly seeded numpy.random.default_rng(seed)",
            )

    @staticmethod
    def _imports_stdlib_random(ctx: FileContext) -> bool:
        # match the bound module, not the local alias: `import random
        # as rnd` must still count as a stdlib-random import
        if any(mod == "random" for mod in ctx.imports.values()):
            return True
        return any(
            mod == "random" for mod, _ in ctx.from_imports.values()
        )


# ---------------------------------------------------------------------------
# no-wall-clock
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: packages whose notion of time is the simulated clock (or, for the
#: deterministic tooling domains obs/analysis, no host clock at all).
#: ``serve`` is in scope too: the control plane may read the wall clock
#: *only* through its sanctioned seam (see below), never directly.
_SIMULATED_TIME_PACKAGES = (
    "core",
    "engine",
    "sched",
    "network",
    "fleet",
    "obs",
    "analysis",
    "serve",
)

#: the one module allowed to read the host clock: the control plane's
#: injectable seam (everything else in repro.serve takes a ``now_fn``)
_WALL_CLOCK_SEAM = "src/repro/serve/clock.py"

#: spellings of the seam call; banned *outside* repro.serve so the
#: engine/scheduler/obs stack stays on virtual time even indirectly
_SEAM_CALLS = frozenset(
    {
        "repro.serve.clock.now",
        "serve.clock.now",
        "clock.now",
    }
)


@rule("no-wall-clock")
class NoWallClock(FileRule):
    """Ban host wall-clock reads where time must be simulated (or, in
    the CLI, monotonic: ``time.perf_counter`` is the one allowed
    duration clock). ``repro.serve`` is the single sanctioned
    consumer of wall time, and only via ``repro.serve.clock.now`` —
    the seam module itself is the one file exempt here; calling the
    seam from the simulation packages is flagged just like
    ``time.time`` would be."""

    description = (
        "simulation packages use virtual time; only "
        "repro.serve.clock may touch the host clock"
    )
    node_types = (ast.Call,)

    def applies_to(self, module: str) -> bool:
        if module == _WALL_CLOCK_SEAM:
            return False
        return (
            _in_packages(module, _SIMULATED_TIME_PACKAGES)
            or module == "src/repro/cli.py"
        )

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            yield ctx.finding(
                self.id,
                node,
                f"wall-clock read {dotted}() is not monotonic and "
                "couples results to the host; simulated code must use "
                "the engine clock, repro.serve must go through the "
                "repro.serve.clock.now seam, and CLI duration "
                "measurements must use time.perf_counter()",
            )
        elif dotted in _SEAM_CALLS and not ctx.module.startswith(
            "src/repro/serve/"
        ):
            yield ctx.finding(
                self.id,
                node,
                f"{dotted}() reads the host clock through the "
                "repro.serve seam; only the control plane may consume "
                "wall time — simulation packages stay on the virtual "
                "engine clock",
            )


# ---------------------------------------------------------------------------
# no-float-equality
# ---------------------------------------------------------------------------

#: packages doing float arithmetic where == is a latent tie-break bug
_NUMERIC_PACKAGES = (
    "core",
    "sched",
    "engine",
    "network",
    "device",
    "models",
    "profiling",
    "data",
    "fleet",
    "obs",
)

_FLOAT_CASTS = frozenset(
    {"float", "numpy.float64", "numpy.float32", "numpy.float16"}
)


@rule("no-float-equality")
class NoFloatEquality(FileRule):
    """Flag ``==`` / ``!=`` where an operand is visibly float-valued.

    Purely syntactic (no type inference): an operand counts as float
    when it is a float literal, a ``float(...)``-style cast, a true
    division, or a unary sign of one of those. That catches the
    dangerous spellings (``x == 0.5``, ``a / b != c``) without false
    alarms on integer comparisons.
    """

    description = (
        "float ==/!= is rounding-dependent; use math.isclose / "
        "np.isclose or an ordering comparison"
    )
    node_types = (ast.Compare,)

    def applies_to(self, module: str) -> bool:
        return _in_packages(module, _NUMERIC_PACKAGES)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if self._floaty(left, ctx) or self._floaty(right, ctx):
                yield ctx.finding(
                    self.id,
                    node,
                    "equality on a float-valued expression depends on "
                    "rounding; use math.isclose / np.isclose (or <=/>= "
                    "for guards on non-negative quantities)",
                )

    def _floaty(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._floaty(node.operand, ctx)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floaty(node.left, ctx) or self._floaty(
                node.right, ctx
            )
        if isinstance(node, ast.Call):
            dotted = ctx.dotted_name(node.func)
            return dotted in _FLOAT_CASTS
        return False


# ---------------------------------------------------------------------------
# event-schema-sync
# ---------------------------------------------------------------------------

#: annotation names that serialise losslessly through json.dumps
_JSON_SAFE_NAMES = frozenset(
    {"int", "float", "str", "bool", "None"}
)
_JSON_SAFE_CONTAINERS = frozenset(
    {"Tuple", "tuple", "List", "list", "Dict", "dict", "Optional",
     "Union", "Sequence", "Mapping"}
)


def _kind_literal(stmt: ast.stmt) -> Optional[str]:
    """The string of a ``kind: <annotation> = "<literal>"`` line of a
    class body (else None)."""
    if (
        isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id == "kind"
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    ):
        return stmt.value.value
    return None


@rule("event-schema-sync")
class EventSchemaSync(FileRule):
    """Keep the engine event taxonomy telemetry-safe.

    Every class deriving (transitively) from ``EngineEvent`` must:
    declare ``kind`` as a ``ClassVar[str]`` string literal, keep that
    string unique across the file, restrict its dataclass fields to
    JSON-serialisable annotations, and be exported in ``__all__`` —
    the JSONL telemetry schema is exactly this contract.
    """

    description = (
        "engine events need unique kind strings, JSON-safe fields and "
        "an __all__ export"
    )
    node_types = (ast.ClassDef,)

    def __init__(self) -> None:
        self._event_classes: Set[str] = {"EngineEvent"}
        self._kinds: Dict[str, Tuple[str, ast.ClassDef]] = {}
        self._seen: List[ast.ClassDef] = []

    def applies_to(self, module: str) -> bool:
        return module.endswith("engine/events.py")

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        assert isinstance(node, ast.ClassDef)
        if node.name == "EngineEvent":
            return
        base_names = {
            b.id for b in node.bases if isinstance(b, ast.Name)
        }
        if not (base_names & self._event_classes):
            return
        self._event_classes.add(node.name)
        self._seen.append(node)

        kind_node = self._kind_assignment(node)
        if kind_node is None:
            yield ctx.finding(
                self.id,
                node,
                f"event class {node.name} must declare "
                "kind: ClassVar[str] = \"<stable-string>\"",
            )
        else:
            assert isinstance(kind_node.value, ast.Constant)
            kind = kind_node.value.value
            if kind in self._kinds:
                other, _ = self._kinds[kind]
                yield ctx.finding(
                    self.id,
                    kind_node,
                    f"duplicate event kind {kind!r}: {node.name} "
                    f"collides with {other} (telemetry consumers key "
                    "on the kind string)",
                )
            else:
                self._kinds[kind] = (node.name, node)

        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "kind"
            ):
                continue
            if self._is_classvar(stmt.annotation):
                continue
            if not self._json_safe(stmt.annotation):
                target = (
                    stmt.target.id
                    if isinstance(stmt.target, ast.Name)
                    else "<field>"
                )
                yield ctx.finding(
                    self.id,
                    stmt,
                    f"field {node.name}.{target} has a non-JSON-"
                    "serialisable annotation "
                    f"{ast.unparse(stmt.annotation)}; events stream "
                    "through json.dumps unmodified",
                )

    def finish(self, ctx: FileContext) -> Iterable[Finding]:
        found = module_all(ctx.tree)
        if found is None:
            return
        _, exported = found
        for node in self._seen:
            if node.name not in exported:
                yield ctx.finding(
                    self.id,
                    node,
                    f"event class {node.name} missing from __all__ "
                    "(the public taxonomy must list every event)",
                )

    @staticmethod
    def _kind_assignment(
        node: ast.ClassDef,
    ) -> Optional[ast.AnnAssign]:
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and _kind_literal(stmt) is not None
                and EventSchemaSync._is_classvar(stmt.annotation)
            ):
                return stmt
        return None

    @staticmethod
    def _is_classvar(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            return (
                isinstance(base, ast.Name) and base.id == "ClassVar"
            ) or (
                isinstance(base, ast.Attribute)
                and base.attr == "ClassVar"
            )
        return False

    @classmethod
    def _json_safe(cls, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Constant):
            # e.g. the `None` half of Optional written as a constant
            return annotation.value is None
        if isinstance(annotation, ast.Name):
            return annotation.id in _JSON_SAFE_NAMES
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in _JSON_SAFE_NAMES
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else None
            )
            if base_name not in _JSON_SAFE_CONTAINERS:
                return False
            inner = annotation.slice
            parts = (
                list(inner.elts)
                if isinstance(inner, ast.Tuple)
                else [inner]
            )
            return all(
                cls._json_safe(p)
                for p in parts
                if not (
                    isinstance(p, ast.Constant) and p.value is Ellipsis
                )
            )
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            # PEP 604 unions: int | None
            return cls._json_safe(annotation.left) and cls._json_safe(
                annotation.right
            )
        return False


# ---------------------------------------------------------------------------
# cross-module rule plumbing
# ---------------------------------------------------------------------------


def _project_finding(
    ctx: ProjectContext,
    rule_id: str,
    path: str,
    lineno: int,
    message: str,
    col: int = 0,
) -> Finding:
    """A finding anchored in a repo file. Inline ``lint: allow``
    comments are applied to every project-rule finding once, by
    :func:`~repro.analysis.runner.lint_repo`."""
    fctx = ctx.files.get(path)
    return Finding(
        rule_id=rule_id,
        path=path,
        line=lineno,
        col=col,
        message=message,
        code=fctx.line_text(lineno) if fctx is not None else "",
    )


#: (literal first argument, module, call node) of one registration
_LiteralCall = Tuple[str, str, ast.Call]


def _literal_calls(
    ctx: ProjectContext,
    prefix: str,
    name: str,
    receiver: Optional[str] = None,
) -> List[_LiteralCall]:
    """Every ``name("literal", ...)`` / ``<expr>.name("literal", ...)``
    call under ``prefix`` (only ``receiver.name(...)`` when a receiver
    is given) — the names code registers (schedulers, metrics, profiler
    phases) that docs owe a backticked mention."""
    out: List[_LiteralCall] = []
    for module, fctx in sorted(ctx.files.items()):
        if not module.startswith(prefix):
            continue
        for node in ast.walk(fctx.tree):
            if not (
                isinstance(node, ast.Call)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            func = node.func
            tail = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if tail == name and (
                receiver is None
                or dotted_text(func) == f"{receiver}.{name}"
            ):
                out.append((node.args[0].value, module, node))
    return out


def _undocumented(
    ctx: ProjectContext,
    rule_id: str,
    calls: List[_LiteralCall],
    doc: Optional[str],
    message: Callable[[str], str],
) -> Iterator[Finding]:
    """One finding per registered literal that ``doc`` does not carry
    as a backticked name (every one, when the doc is absent)."""
    for name, module, node in calls:
        if doc is None or f"`{name}`" not in doc:
            yield _project_finding(
                ctx,
                rule_id,
                module,
                node.lineno,
                message(name),
                col=node.col_offset,
            )


def _registered_schedulers(
    graph: ProjectGraph,
) -> List[Tuple[ModuleInfo, ClassInfo]]:
    """Every ``@register``-decorated class under ``src/repro/sched``."""
    return [
        (info, cls)
        for path, info in sorted(graph.by_path.items())
        if path.startswith("src/repro/sched/")
        for cls in info.classes.values()
        if any(d.rsplit(".", 1)[-1] == "register" for d in cls.decorators)
    ]


# ---------------------------------------------------------------------------
# registry-doc-drift
# ---------------------------------------------------------------------------


@rule("registry-doc-drift")
class RegistryDocDrift(ProjectRule):
    """Registered scheduler names must appear in the README table and
    in at least one ``tests/sched`` module."""

    description = (
        "scheduler registry, README table and tests/sched coverage "
        "must agree"
    )

    def check_project(
        self, ctx: ProjectContext
    ) -> Iterable[Finding]:
        # ``@register("name")`` class decorators under repro.sched
        registered = _literal_calls(ctx, "src/repro/sched/", "register")
        if not registered:
            return
        yield from _undocumented(
            ctx,
            self.id,
            registered,
            ctx.read_text("README.md") or "",
            lambda name: (
                f"scheduler {name!r} is registered but missing from "
                f"the README scheduler table (add a `{name}` row)"
            ),
        )
        test_blob = "\n".join(
            p.read_text(encoding="utf-8")
            for p in ctx.glob("tests/sched/*.py")
        )
        for name, module, node in registered:
            if not re.search(
                rf"""["']{re.escape(name)}["']""", test_blob
            ):
                yield _project_finding(
                    ctx,
                    self.id,
                    module,
                    node.lineno,
                    f"scheduler {name!r} is registered but no "
                    "tests/sched module exercises it by name",
                    col=node.col_offset,
                )


# ---------------------------------------------------------------------------
# metric-doc-drift
# ---------------------------------------------------------------------------


@rule("metric-doc-drift")
class MetricDocDrift(ProjectRule):
    """Every metric registered in the :mod:`repro.obs` catalog must be
    documented (as a backticked name) in ``docs/observability.md``."""

    description = (
        "repro.obs metric catalog and docs/observability.md must agree"
    )

    def check_project(
        self, ctx: ProjectContext
    ) -> Iterable[Finding]:
        registered = _literal_calls(
            ctx, "src/repro/obs/", "register_metric"
        )
        doc = ctx.read_text("docs/observability.md")
        if doc is None:
            # one finding for the missing file, not one per metric
            yield from _undocumented(
                ctx,
                self.id,
                registered[:1],
                None,
                lambda name: (
                    f"metrics are registered (e.g. {name!r}) but "
                    "docs/observability.md does not exist"
                ),
            )
            return
        yield from _undocumented(
            ctx,
            self.id,
            registered,
            doc,
            lambda name: (
                f"metric {name!r} is registered but missing from "
                f"docs/observability.md (add a `{name}` row to the "
                "metric table)"
            ),
        )


# ---------------------------------------------------------------------------
# bench-payload-schema
# ---------------------------------------------------------------------------


@rule("bench-payload-schema")
class BenchPayloadSchema(ProjectRule):
    """The committed performance trajectory must stay trustworthy.

    Two halves: every ``BENCH_*.json`` at the repo root is a JSON
    object carrying ``schema`` and ``git_sha`` keys (payloads without a
    version cannot be diffed safely; payloads without provenance cannot
    be traced to a commit), and every literal phase name passed to the
    global profiler (``PROFILER.phase("...")``) in ``src`` appears as a
    backticked name in ``docs/observability.md`` — the phase table
    cannot drift from the instrumentation.
    """

    description = (
        "BENCH_*.json payloads carry schema+git_sha and profiler "
        "phase names are documented in docs/observability.md"
    )

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        yield from self._check_payloads(ctx)
        yield from _undocumented(
            ctx,
            self.id,
            # the global profiler only: local instances (micro-bench
            # probes, tests) are exempt
            _literal_calls(ctx, "src/repro/", "phase", "PROFILER"),
            ctx.read_text("docs/observability.md"),
            lambda name: (
                f"profiler phase {name!r} is used but not documented "
                f"in docs/observability.md (add a `{name}` row to the "
                "phase table)"
            ),
        )

    def _check_payloads(
        self, ctx: ProjectContext
    ) -> Iterator[Finding]:
        for path in ctx.glob("BENCH_*.json"):
            rel = path.name
            text = ctx.read_text(rel)
            if text is None:  # pragma: no cover - racy delete
                continue
            problems: List[str] = []
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                problems.append(f"{rel} is not valid JSON: {exc}")
            else:
                if not isinstance(payload, dict):
                    problems.append(f"{rel} must be a JSON object")
                else:
                    problems.extend(
                        f"{rel} is missing the {key!r} key "
                        "(committed bench payloads must be "
                        "schema-versioned and carry provenance)"
                        for key in ("schema", "git_sha")
                        if key not in payload
                    )
            for message in problems:
                yield _project_finding(ctx, self.id, rel, 1, message)


# ---------------------------------------------------------------------------
# event-dispatch-exhaustiveness
# ---------------------------------------------------------------------------


@rule("event-dispatch-exhaustiveness")
class EventDispatchExhaustiveness(ProjectRule):
    """Event taxonomy and the observability fold must agree.

    Source of truth: the ``EngineEvent`` subclasses (and their ``kind``
    strings) in ``engine/events.py``. ``ObsRecorder._HANDLERS`` is the
    one ``kind``-keyed dispatch table — the live fold looks handlers up
    in it, and replay is "decode, then the live fold" — so:

    * every event class must have an entry; a new event otherwise
      silently vanishes from metrics and energy, live and replayed;
    * every entry must name a declared event, as ``<EventClass>.kind``
      or as a kind string literal — anything else can never run.

    When a repo has no recorder the rule is silent (nothing consumes
    events, so nothing can be out of sync).
    """

    # wording pinned by the SARIF golden; "live and replay dispatch" is
    # now the one table
    description = (
        "every engine event kind must be handled by the ObsRecorder "
        "live and replay dispatch, and no dispatch may target an "
        "undeclared event"
    )

    def check_project(
        self, ctx: ProjectContext
    ) -> Iterable[Finding]:
        graph = ctx.graph
        if graph is None:
            return
        events = graph.module_at("engine/events.py")
        if events is None:
            return
        classes, kinds = self._event_taxonomy(events)
        recorder = self._find_class(graph, "ObsRecorder", "src/repro/obs/")
        if not classes or recorder is None:
            return
        rmod, rcls = recorder
        table = self._handler_table(rcls)
        label = f"{rcls.name}._HANDLERS"
        handled: Set[str] = set()
        for key in table.keys if table is not None else ():
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                named, target = f"kind {key.value!r}", kinds.get(key.value)
            elif isinstance(key, ast.Attribute) and key.attr == "kind":
                named = ast.unparse(key.value)
                resolved = graph.resolve_class(rmod.name, named)
                target = (
                    resolved[1].name
                    if resolved is not None and resolved[0] is events
                    else None
                )
            else:
                continue
            if target is not None and target in classes:
                handled.add(target)
                continue
            yield _project_finding(
                ctx,
                self.id,
                rmod.path,
                key.lineno,
                f"{label} has a handler for {named}, which does not "
                f"exist in the event taxonomy of {events.name} — stale "
                "or misspelled, this handler can never run",
                col=key.col_offset,
            )
        anchor = table if table is not None else rcls.node
        for name in sorted(set(classes) - handled):
            kind = classes[name]
            kind_label = f" (kind {kind!r})" if kind else ""
            yield _project_finding(
                ctx,
                self.id,
                rmod.path,
                anchor.lineno,
                f"event class {name}{kind_label} has no handler in "
                f"{label} — live and replayed captures silently drop "
                f"it; add a `{name}.kind: <handler>` entry",
            )

    @staticmethod
    def _handler_table(cls: ClassInfo) -> Optional[ast.Dict]:
        """The dict literal bound to ``_HANDLERS`` in the class body."""
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign):
                targets: List[ast.expr] = [stmt.target]
            elif isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                continue
            if isinstance(stmt.value, ast.Dict) and any(
                isinstance(t, ast.Name) and t.id == "_HANDLERS"
                for t in targets
            ):
                return stmt.value
        return None

    # -- taxonomy ----------------------------------------------------------
    @staticmethod
    def _event_taxonomy(
        events: ModuleInfo,
    ) -> Tuple[Dict[str, Optional[str]], Dict[str, str]]:
        """(event class -> kind string, kind string -> class)."""
        event_bases = {"EngineEvent"}
        classes: Dict[str, Optional[str]] = {}
        kinds: Dict[str, str] = {}
        for cls in events.classes.values():
            if not any(
                b.rsplit(".", 1)[-1] in event_bases for b in cls.bases
            ):
                continue
            event_bases.add(cls.name)
            literals = map(_kind_literal, cls.node.body)
            kind = next((k for k in literals if k is not None), None)
            classes[cls.name] = kind
            if kind is not None:
                kinds[kind] = cls.name
        return classes, kinds

    @staticmethod
    def _find_class(
        graph: "ProjectGraph", name: str, path_prefix: str
    ) -> Optional[Tuple[ModuleInfo, ClassInfo]]:
        """Locate a consumer class, preferring its canonical package."""
        fallback: Optional[Tuple[ModuleInfo, ClassInfo]] = None
        for path in sorted(graph.by_path):
            info = graph.by_path[path]
            cls = info.classes.get(name)
            if cls is None:
                continue
            if path.startswith(path_prefix):
                return (info, cls)
            if fallback is None:
                fallback = (info, cls)
        return fallback


# ---------------------------------------------------------------------------
# scheduler-contract
# ---------------------------------------------------------------------------


@rule("scheduler-contract")
class SchedulerContract(ProjectRule):
    """Registered schedulers must honour the ABC and be reachable.

    For every ``@register("name")``-decorated class under
    ``src/repro/sched``:

    * it must (transitively) subclass the ``Scheduler`` ABC;
    * it must define or inherit ``schedule`` with the ABC's shape —
      exactly ``(self, problem)`` required, extras defaulted, and a
      return annotation (when present) of ``Assignment``;
    * its module must sit in the import closure of the comparison
      harness (``sched/bench.py``): registration is an import
      side-effect, so an unreachable module means ``bench.compare``
      silently never sees the scheduler.
    """

    description = (
        "@register-ed schedulers must subclass Scheduler, match the "
        "schedule() signature and be importable from bench.compare"
    )

    def check_project(
        self, ctx: ProjectContext
    ) -> Iterable[Finding]:
        graph = ctx.graph
        if graph is None:
            return
        registered = _registered_schedulers(graph)
        if not registered:
            return
        bench = graph.module_at("sched/bench.py")
        closure: Optional[Set[str]] = (
            graph.import_closure([bench.name])
            if bench is not None and "compare" in bench.functions
            else None
        )
        for info, cls in registered:
            yield from self._check_one(ctx, graph, info, cls, closure)

    def _check_one(
        self,
        ctx: ProjectContext,
        graph: "ProjectGraph",
        info: ModuleInfo,
        cls: ClassInfo,
        closure: Optional[Set[str]],
    ) -> Iterator[Finding]:
        def emit(lineno: int, message: str) -> Finding:
            return _project_finding(
                ctx, self.id, info.path, lineno, message
            )

        if not graph.inherits_from(info.name, cls, "Scheduler"):
            yield emit(
                cls.lineno,
                f"registered scheduler {cls.name} does not subclass "
                "the Scheduler ABC — it will not satisfy the "
                "schedule() contract the engine calls",
            )
        found = graph.find_method(info.name, cls, "schedule")
        if found is None:
            yield emit(
                cls.lineno,
                f"registered scheduler {cls.name} neither defines nor "
                "inherits schedule(); get_scheduler(...).schedule(...) "
                "will raise at run time",
            )
        else:
            fn = cls.methods.get("schedule")
            if fn is not None:
                required = fn.required_params
                if len(required) > 2 or (
                    len(fn.params) < 2 and not fn.has_vararg
                ):
                    yield emit(
                        fn.lineno,
                        f"{cls.name}.schedule{tuple(fn.params)} does "
                        "not match the Scheduler ABC shape "
                        "schedule(self, problem) — extra parameters "
                        "must carry defaults",
                    )
                returns = (fn.returns or "").strip("'\"")
                if returns and returns.rsplit(".", 1)[-1] != "Assignment":
                    yield emit(
                        fn.lineno,
                        f"{cls.name}.schedule returns {returns!r}; the "
                        "Scheduler contract requires an Assignment",
                    )
        if closure is not None and info.name not in closure:
            yield emit(
                cls.lineno,
                f"scheduler {cls.name} is registered in {info.name}, "
                "which bench.compare never imports — the registration "
                "side-effect never runs and the comparison harness "
                "silently skips it",
            )


# ---------------------------------------------------------------------------
# unit-consistency
# ---------------------------------------------------------------------------

#: name suffix -> (dimension, canonical unit label)
_UNIT_SUFFIXES: Dict[str, Tuple[str, str]] = {
    "s": ("time", "s"),
    "sec": ("time", "s"),
    "secs": ("time", "s"),
    "seconds": ("time", "s"),
    "ms": ("time", "ms"),
    "j": ("energy", "J"),
    "joules": ("energy", "J"),
    "mah": ("charge", "mAh"),
    "soc": ("state-of-charge fraction", "SoC"),
}

#: packages where unit-suffixed names are the load-bearing convention
_UNIT_PACKAGES = (
    "core",
    "engine",
    "sched",
    "network",
    "device",
    "fleet",
    "obs",
)


def _suffix_unit(name: str) -> Optional[Tuple[str, str]]:
    """Unit of a ``_s``/``_ms``/``_j``/``_mah``/``_soc``-suffixed name."""
    if "_" not in name:
        return None
    return _UNIT_SUFFIXES.get(name.rsplit("_", 1)[1].lower())


def _expr_unit(node: ast.AST) -> Optional[Tuple[str, str]]:
    """Unit of an expression, where syntactically evident."""
    if isinstance(node, ast.Name):
        return _suffix_unit(node.id)
    if isinstance(node, ast.Attribute):
        return _suffix_unit(node.attr)
    if isinstance(node, ast.UnaryOp):
        return _expr_unit(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        left, right = _expr_unit(node.left), _expr_unit(node.right)
        return left if left is not None and left == right else None
    return None


@rule("unit-consistency")
class UnitConsistency(FileRule):
    """Dimensional sanity over unit-suffixed names.

    The repo's convention encodes units in names (``makespan_s``,
    ``energy_j``, ``solve_ms``, ``battery_soc``); this rule flags the
    operations that silently cross dimensions: adding/subtracting,
    comparing or assigning a time to an energy (or seconds to
    milliseconds), and — through the project call graph — passing a
    unit-suffixed argument into a parameter carrying a different unit.
    Multiplication/division are exempt (that is how conversions are
    written); names without a recognised suffix have no unit and never
    participate.
    """

    description = (
        "unit-suffixed names (_s/_ms/_j/_mah/_soc) must not mix "
        "dimensions in arithmetic, comparisons, assignments or calls"
    )
    node_types = (
        ast.BinOp,
        ast.Compare,
        ast.Assign,
        ast.AugAssign,
        ast.Call,
    )

    def applies_to(self, module: str) -> bool:
        return _in_packages(module, _UNIT_PACKAGES)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._pair(
                    node, node.left, node.right, ctx,
                    "added/subtracted with",
                )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i in range(len(node.ops)):
                yield from self._pair(
                    node, operands[i], operands[i + 1], ctx,
                    "compared against",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Name, ast.Attribute)):
                    yield from self._pair(
                        node, target, node.value, ctx, "assigned from"
                    )
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._pair(
                    node, node.target, node.value, ctx,
                    "added/subtracted with",
                )
        elif isinstance(node, ast.Call):
            yield from self._check_call(node, ctx)

    def _pair(
        self,
        anchor: ast.AST,
        left: ast.AST,
        right: ast.AST,
        ctx: FileContext,
        verb: str,
    ) -> Iterator[Finding]:
        lu, ru = _expr_unit(left), _expr_unit(right)
        if lu is None or ru is None or lu == ru:
            return
        yield ctx.finding(
            self.id,
            anchor,
            f"{lu[0]} ({lu[1]}) {verb} {ru[0]} ({ru[1]}); convert "
            "explicitly (multiply/divide) or rename one side — mixed "
            "units here are silent correctness bugs",
        )

    # -- cross-call flow ---------------------------------------------------
    def _check_call(
        self, node: ast.Call, ctx: FileContext
    ) -> Iterator[Finding]:
        if ctx.project is None or ctx.project.graph is None:
            return
        graph = ctx.project.graph
        minfo = graph.by_path.get(ctx.module)
        if minfo is None:
            return
        call_targets: Dict[int, str] = ctx.memo(
            "call-targets",
            lambda: {id(call): dotted for dotted, call in minfo.calls},
        )
        dotted = call_targets.get(id(node))
        if dotted is None:
            return
        resolved = graph.resolve_call_target(minfo.name, dotted)
        if resolved is None:
            return
        tmod, fn = resolved
        params = fn.params
        # bound-method dispatch (`self.handler(...)`) passes the
        # receiver implicitly: positional args start at params[1]
        if (
            params
            and params[0] in ("self", "cls")
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("self", "cls")
        ):
            params = params[1:]
        pairs: List[Tuple[str, ast.AST]] = list(
            zip(params, node.args)
        )
        pairs.extend(
            (kw.arg, kw.value)
            for kw in node.keywords
            if kw.arg is not None and kw.arg in params
        )
        for param, arg in pairs:
            pu, au = _suffix_unit(param), _expr_unit(arg)
            if pu is None or au is None or pu == au:
                continue
            yield ctx.finding(
                self.id,
                arg,
                f"{au[0]} ({au[1]}) argument flows into parameter "
                f"{param!r} of {tmod.name}.{fn.name}, which expects "
                f"{pu[0]} ({pu[1]}); convert at the call site or "
                "rename the parameter",
            )


# ---------------------------------------------------------------------------
# no-python-loop-over-fleet
# ---------------------------------------------------------------------------

#: hot-path packages where a Python-level loop over fleet columns
#: defeats the columnar struct-of-arrays design: the packages that hold
#: a fleet (``fleet``, ``serve``) and the ones a fleet is handed to
_FLEET_HOT_PACKAGES = ("engine", "sched", "fleet", "serve")

#: the store itself builds its per-class arrays row by row, once
_FLEET_LOOP_EXEMPT = "src/repro/fleet/store.py"

#: FleetStore attributes/methods that yield O(population) columns; the
#: per-class constants (``classes`` and friends) are deliberately NOT
#: here — looping over a handful of device classes is fine
_FLEET_COLUMNS = frozenset(
    {
        "class_id",
        "data_size",
        "battery_j",
        "capacity_j",
        "alive",
        "n",
        "soc",
        "eligible_mask",
        "compute_time_s",
        "run_compute",
        "comm_time_s",
        "download_time_s",
        "upload_time_s",
        "idle",
        "as_devices",
        "as_links",
    }
)


def _iterates_fleet_column(iter_node: ast.AST) -> Optional[str]:
    """The offending ``fleet.<column>`` spelling when the iterable
    walks a fleet column, else None."""
    for sub in ast.walk(iter_node):
        if not isinstance(sub, ast.Attribute):
            continue
        if sub.attr not in _FLEET_COLUMNS:
            continue
        base = sub.value
        if isinstance(base, ast.Name) and base.id == "fleet":
            return f"fleet.{sub.attr}"
        if isinstance(base, ast.Attribute) and base.attr == "fleet":
            return f"fleet.{sub.attr}"
    return None


@rule("no-python-loop-over-fleet")
class NoPythonLoopOverFleet(FileRule):
    """Ban Python-level iteration over fleet columns in hot paths.

    The columnar refactor exists so rounds scale to 10⁶ simulated
    devices; a ``for`` loop (or comprehension) whose iterable touches a
    :class:`~repro.fleet.store.FleetStore` column is an O(population)
    interpreter loop exactly where the arrays were supposed to do the
    work. In scope: the packages that hold a fleet — ``fleet`` (round
    core, runner, samplers) and ``serve`` (coordinator, registry) —
    and the ``engine``/``sched`` code a fleet is handed to;
    ``fleet/store.py`` is exempt (it builds the per-class arrays).
    Vectorize with NumPy index arrays instead; a deliberate
    object-per-client legacy path may carry an inline
    ``# lint: allow[no-python-loop-over-fleet]``.
    """

    # wording pinned by the SARIF golden; the scope is the docstring's
    description = (
        "engine/sched hot paths must not for-loop over FleetStore "
        "columns; use vectorized array operations"
    )
    node_types = (
        ast.For,
        ast.AsyncFor,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    def applies_to(self, module: str) -> bool:
        return module != _FLEET_LOOP_EXEMPT and _in_packages(
            module, _FLEET_HOT_PACKAGES
        )

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterable[Finding]:
        iters: List[ast.AST]
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        else:
            iters = [
                gen.iter
                for gen in node.generators  # type: ignore[attr-defined]
            ]
        for iter_node in iters:
            spelled = _iterates_fleet_column(iter_node)
            if spelled is None:
                continue
            yield ctx.finding(
                self.id,
                node,
                f"Python-level loop iterates the fleet column "
                f"{spelled}: this is O(population) interpreter work in "
                "a hot path built for 10^6 devices; replace it with a "
                "vectorized array operation (or mark a deliberate "
                "legacy path with an inline allow)",
            )


# ---------------------------------------------------------------------------
# dead-public-api
# ---------------------------------------------------------------------------


@rule("dead-public-api")
class DeadPublicApi(ProjectRule):
    """``__all__`` exports must have at least one inbound reference.

    A symbol is *used* when its name occurs outside import statements
    and ``__all__`` blocks in any other file — ``src`` modules (via
    their ASTs) plus the ``tests``/``examples``/``benchmarks`` trees
    (textually). Re-exporting a name is not using it: an export chain
    nobody consumes is exactly the drift this rule exists to catch.
    """

    description = (
        "__all__ exports need an inbound reference from src, tests, "
        "examples or benchmarks"
    )

    def check_project(
        self, ctx: ProjectContext
    ) -> Iterable[Finding]:
        graph = ctx.graph
        if graph is None:
            return
        tokens = ctx.reference_tokens()
        for path, info in sorted(graph.by_path.items()):
            if not info.exports:
                continue
            for name in info.exports:
                if any(
                    name in toks
                    for other, toks in tokens.items()
                    if other != path
                ):
                    continue
                yield _project_finding(
                    ctx,
                    self.id,
                    path,
                    info.symbol_lineno(name),
                    f"{info.name}.__all__ exports {name!r} but nothing "
                    "in src, tests, examples or benchmarks references "
                    "it — drop the export (and the symbol, if truly "
                    "dead) or add the missing consumer",
                )
