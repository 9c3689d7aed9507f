"""Engine-level tests for the interprocedural taint lattice.

These drive :mod:`repro.analysis.taint` directly — sources,
propagation through containers and tuple unpacking, the seeded
generator and ``_ms`` sanitizers, flow-sensitive kills, summary
resolution over both providers, and exactness on recursive cycles —
independently of the reporting rules layered on top.
"""

from __future__ import annotations

import ast
import textwrap
from typing import Dict, List

from repro.analysis import (
    FileContext,
    build_cfg,
    build_project,
    solve_forward,
    unit_facts,
)
from repro.analysis.taint import (
    ENV,
    EMPTY_SUMMARY,
    HOST_TIME,
    ID_ADDR,
    ITER_ORDER,
    RNG,
    TAINT_KINDS,
    FnTaint,
    LocalSummaries,
    ProjectSummaries,
    SummaryProvider,
    TaintEngine,
    TaintFlow,
    TaintMap,
    class_attr_taints,
    project_summaries,
    summaries_for,
)


def _ctx(source: str, module: str = "src/repro/core/mod.py") -> FileContext:
    source = textwrap.dedent(source)
    return FileContext(
        module=module, source=source, tree=ast.parse(source)
    )


def _func(ctx: FileContext, name: str, owner: str = None):
    body = ctx.tree.body
    if owner is not None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == owner:
                body = stmt.body
                break
    for stmt in body:
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == name
        ):
            return stmt
    raise AssertionError(f"no function {name!r}")


def returned_taints(
    source: str, func: str = "f", owner: str = None
) -> List[TaintMap]:
    """Flow-sensitive taint of each ``return`` expression, in order."""
    ctx = _ctx(source)
    node = _func(ctx, func, owner)
    engine = TaintEngine(ctx, owner)
    seeds: Dict[str, TaintMap] = {}
    if owner is not None:
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == owner:
                seeds = class_attr_taints(ctx, stmt, engine.summaries)
    flow = TaintFlow(engine, seed_names=seeds)
    cfg = build_cfg(node)
    entry = solve_forward(cfg, flow)
    out: List[TaintMap] = []
    for block in cfg.blocks:
        for fact, unit in unit_facts(
            flow, cfg, block.idx, entry[block.idx]
        ):
            if isinstance(unit, ast.Return) and unit.value is not None:
                out.append(
                    engine.expr_taint(unit.value, flow.lookup_for(fact))
                )
    return out


def kinds(taint: TaintMap) -> set:
    return set(taint)


# -- sources -----------------------------------------------------------------


def test_source_table_covers_every_kind():
    assert TAINT_KINDS == (HOST_TIME, RNG, ENV, ID_ADDR, ITER_ORDER)
    (t,) = returned_taints(
        "import time\n\n\ndef f():\n    return time.perf_counter()\n"
    )
    assert kinds(t) == {HOST_TIME}
    (t,) = returned_taints(
        "import os\n\n\ndef f():\n    return os.getenv('X')\n"
    )
    assert kinds(t) == {ENV}
    (t,) = returned_taints("def f(x):\n    return id(x)\n")
    assert kinds(t) == {ID_ADDR}
    (t,) = returned_taints("def f():\n    return {1, 2, 3}\n")
    assert kinds(t) == {ITER_ORDER}
    (t,) = returned_taints(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    assert kinds(t) == {RNG}


def test_serve_clock_seam_is_a_host_time_source():
    (t,) = returned_taints(
        """
        from repro.serve import clock


        def f():
            return clock.now()
        """
    )
    assert kinds(t) == {HOST_TIME}


# -- propagation -------------------------------------------------------------


def test_tuple_unpack_is_pairwise_precise():
    source = """
        import time


        def f():
            a, b = time.perf_counter(), 1.0
            return a


        def g():
            a, b = time.perf_counter(), 1.0
            return b
    """
    (ta,) = returned_taints(source, "f")
    (tb,) = returned_taints(source, "g")
    assert kinds(ta) == {HOST_TIME}
    assert kinds(tb) == set()


def test_unpack_from_opaque_value_taints_every_target():
    (t,) = returned_taints(
        """
        import time


        def f():
            pair = (time.perf_counter(), 1.0)
            a, b = pair
            return b
        """
    )
    # non-literal RHS: no element mapping, so the whole taint spreads
    assert kinds(t) == {HOST_TIME}


def test_taint_flows_through_containers_and_subscripts():
    (t,) = returned_taints(
        """
        import time


        def f():
            t0 = time.perf_counter()
            box = {"wall": t0}
            xs = [box]
            return xs[0]
        """
    )
    assert kinds(t) == {HOST_TIME}
    chain = [s.label for s in t[HOST_TIME]]
    assert chain[0] == "time.perf_counter"
    assert "xs" in chain


def test_branch_join_is_a_may_union():
    (t,) = returned_taints(
        """
        import time


        def f(fast):
            if fast:
                v = 0.0
            else:
                v = time.perf_counter()
            return v
        """
    )
    assert kinds(t) == {HOST_TIME}


def test_walrus_in_branch_header_binds():
    returns = returned_taints(
        """
        import time


        def f():
            if (t0 := time.perf_counter()) > 0:
                return t0
            return 0.0
        """
    )
    # one return per branch: the walrus target is tainted inside the
    # taken branch, the constant fallthrough stays clean
    assert sorted(kinds(t) == {HOST_TIME} for t in returns) == [
        False,
        True,
    ]


# -- sanitizers --------------------------------------------------------------


def test_seeded_generator_rebind_sanitizes_later_draws():
    clean = """
        from numpy.random import default_rng


        def f(seed):
            rng = default_rng()
            rng = default_rng(seed)
            x = rng.normal()
            return x
    """
    dirty = """
        from numpy.random import default_rng


        def f(seed):
            rng = default_rng()
            x = rng.normal()
            rng = default_rng(seed)
            return x
    """
    (t_clean,) = returned_taints(clean)
    (t_dirty,) = returned_taints(dirty)
    # same statement multiset — only the flow-sensitive order differs
    assert kinds(t_clean) == set()
    assert kinds(t_dirty) == {RNG}


def test_order_insensitive_folds_strip_iter_order():
    source = """
        def f(xs):
            s = set(xs)
            return sorted(s)


        def g(xs):
            s = set(xs)
            return len(s)


        def h(xs):
            s = set(xs)
            return s
    """
    (t,) = returned_taints(source, "f")
    assert ITER_ORDER not in t
    (t,) = returned_taints(source, "g")
    assert ITER_ORDER not in t
    (t,) = returned_taints(source, "h")
    assert ITER_ORDER in t


def test_ms_binding_stops_host_time():
    (t,) = returned_taints(
        """
        import time


        def f(t0):
            solve_ms = (time.perf_counter() - t0) * 1e3
            return solve_ms
        """
    )
    assert kinds(t) == set()


# -- summaries ---------------------------------------------------------------


def test_local_summary_carries_source_and_param_flow():
    ctx = _ctx(
        """
        import time


        def lag(t0):
            return time.perf_counter() - t0
        """
    )
    provider = summaries_for(ctx)
    assert isinstance(provider, LocalSummaries)
    assert isinstance(provider, SummaryProvider)
    summary = provider.get("lag")
    assert isinstance(summary, FnTaint)
    assert HOST_TIME in summary.returns_map()
    assert summary.param_flow == frozenset({0})


def test_ms_named_function_summary_is_sanctioned():
    ctx = _ctx(
        """
        import time


        def build_ms(t0):
            return (time.perf_counter() - t0) * 1e3


        def plain():
            return 3.0
        """
    )
    provider = LocalSummaries(ctx)
    assert HOST_TIME not in provider.get("build_ms").returns_map()
    assert provider.get("plain") is EMPTY_SUMMARY


def test_helper_laundering_resolves_through_local_summaries():
    (t,) = returned_taints(
        """
        import time


        def _wall():
            return time.perf_counter()


        def f():
            v = _wall()
            return v
        """
    )
    assert kinds(t) == {HOST_TIME}


def test_bound_method_laundering_resolves_via_self():
    (t,) = returned_taints(
        """
        import time


        class Prof:
            def _read(self):
                return time.perf_counter()

            def snap(self):
                return self._read()
        """,
        func="snap",
        owner="Prof",
    )
    assert kinds(t) == {HOST_TIME}


def test_recursive_cycle_terminates_and_is_order_independent():
    ctx = _ctx(
        """
        import time


        def ping(n):
            if n:
                return pong(n - 1)
            return time.perf_counter()


        def pong(n):
            return ping(n)
        """
    )
    # the cycle's summaries are its least fixed point: both functions
    # may return the host clock, whichever is asked first
    for order in (("ping", "pong"), ("pong", "ping")):
        provider = LocalSummaries(ctx)
        first, second = (provider.get(key) for key in order)
        assert HOST_TIME in first.returns_map()
        assert HOST_TIME in second.returns_map()
    assert HOST_TIME in provider.get("pong").returns_map()


def test_project_summaries_resolve_across_modules(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "",
        "src/repro/core/timing.py": (
            "import time\n"
            "\n"
            "\n"
            "def wall():\n"
            "    return time.perf_counter()\n"
        ),
        "src/repro/core/use.py": (
            "from .timing import wall\n"
            "\n"
            "\n"
            "def grab():\n"
            "    return wall()\n"
        ),
    }
    paths = []
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        paths.append(path)
    project, errors = build_project(tmp_path, paths)
    assert errors == []
    provider = project_summaries(project)
    assert isinstance(provider, ProjectSummaries)
    # cached: the project context hands back one shared provider
    assert project_summaries(project) is provider
    wall = provider.get("repro.core.timing.wall")
    assert HOST_TIME in wall.returns_map()
    grab = provider.get("repro.core.use.grab")
    assert HOST_TIME in grab.returns_map()


# -- class attribute seeds ---------------------------------------------------


def test_class_attr_taints_cross_method():
    ctx = _ctx(
        """
        import time


        class Prof:
            def start(self):
                self._t0 = time.perf_counter()

            def stop(self):
                return self._t0
        """
    )
    cls = ctx.tree.body[-1]
    seeds = class_attr_taints(ctx, cls)
    assert set(seeds) == {"self._t0"}
    assert HOST_TIME in seeds["self._t0"]
    (t,) = returned_taints(ctx.source, func="stop", owner="Prof")
    assert kinds(t) == {HOST_TIME}


def test_class_attr_ms_convention_is_sanctioned():
    ctx = _ctx(
        """
        import time


        class Prof:
            def start(self):
                self.build_ms = time.perf_counter() * 1e3
        """
    )
    cls = ctx.tree.body[-1]
    assert class_attr_taints(ctx, cls) == {}
