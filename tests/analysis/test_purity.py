"""Purity inference: the certificate behind ``impure-scheduler``.

Exercises :mod:`repro.analysis.purity` directly — direct and aliased
``self`` writes, argument and global mutation, interprocedural effect
lifting with its call-site chains, recursion termination, and async
functions — on single-file contexts (the ``LocalSummaries`` resolver).
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis import FileContext
from repro.analysis.purity import (
    MUTATOR_METHODS,
    PurityIndex,
    PuritySummary,
    purity_index_for,
)


def summary(source: str, key: str) -> PuritySummary:
    source = textwrap.dedent(source)
    ctx = FileContext(
        module="src/repro/sched/mod.py",
        source=source,
        tree=ast.parse(source),
    )
    index = purity_index_for(ctx)
    assert isinstance(index, PurityIndex)
    return index.get(key)


def effects(source: str, key: str) -> set:
    return set(summary(source, key).effects)


def test_pure_function_certifies():
    s = summary(
        """
        def rank(problem):
            order = []
            order.append(problem)
            order.sort()
            return order
        """,
        "rank",
    )
    assert isinstance(s, PuritySummary)
    # mutating locals is pure: only non-local state counts
    assert s.is_pure


def test_self_attribute_writes():
    src = """
        class S:
            def schedule(self, problem):
                self._cache = problem
                self.count += 1
                self._by_id[0] = problem
                del self._stale
    """
    assert effects(src, "S.schedule") == {
        ("self", "_cache"),
        ("self", "count"),
        ("self", "_by_id"),
        ("self", "_stale"),
    }


def test_mutator_method_on_self_state():
    assert "append" in MUTATOR_METHODS and "popleft" in MUTATOR_METHODS
    src = """
        class S:
            def schedule(self, problem):
                self._hist.append(problem)
                return problem
    """
    assert effects(src, "S.schedule") == {("self", "_hist")}


def test_alias_of_self_state_is_tracked():
    src = """
        class S:
            def schedule(self, problem):
                rows = self._rows
                rows.append(problem)
                return rows
    """
    eff = effects(src, "S.schedule")
    assert len(eff) == 1
    (kind, _detail) = next(iter(eff))
    assert kind == "self"


def test_argument_mutation():
    src = """
        def f(weights, out):
            weights.sort()
            out[0] = 1.0
    """
    assert effects(src, "f") == {
        ("param", "weights"),
        ("param", "out"),
    }


def test_global_mutation():
    src = """
        CACHE = {}


        def remember(k, v):
            CACHE[k] = v


        def bump(n):
            global COUNT
            COUNT = n
    """
    assert effects(src, "remember") == {("global", "CACHE")}
    assert effects(src, "bump") == {("global", "COUNT")}


def test_interprocedural_effect_lifting_with_chain():
    src = """
        class Sticky:
            def schedule(self, problem):
                out = [problem]
                self._note(out)
                return out

            def _note(self, out):
                self._hist.append(out)
    """
    s = summary(src, "Sticky.schedule")
    assert s.effects == frozenset({("self", "_hist")})
    chain = s.chain_for(("self", "_hist"))
    assert [step.label for step in chain] == [
        "_note()",
        "self._hist.append",
    ]


def test_recursion_terminates():
    src = """
        class S:
            def schedule(self, problem, depth=0):
                self._seen = problem
                if depth:
                    self.schedule(problem, depth - 1)
                return problem
    """
    assert effects(src, "S.schedule") == {("self", "_seen")}


@pytest.mark.parametrize("warm_up", [(), ("a",), ("b", "a")])
def test_mutual_recursion_is_exact_whatever_was_asked_first(warm_up):
    src = textwrap.dedent(
        """
        STATE = []


        def a(n):
            STATE.append(n)
            return b(n)


        def b(n):
            return a(n - 1) if n else 0


        class S:
            def schedule(self, problem):
                return b(problem)
        """
    )
    ctx = FileContext(
        module="src/repro/sched/mod.py", source=src, tree=ast.parse(src)
    )
    index = purity_index_for(ctx)
    for key in warm_up:
        index.get(key)
    # a summary memoised under a cycle cut-off certified `b` — and the
    # scheduler built on it — pure once anything had asked for `a`
    for key in ("S.schedule", "b", "a"):
        assert set(index.get(key).effects) == {("global", "STATE")}


def test_unresolvable_calls_are_assumed_pure():
    src = """
        def f(problem, sink):
            sink.send(problem)
            mystery(problem)
            return problem
    """
    # `send` is no known mutator and `mystery` cannot be resolved:
    # unknown is never impure (the documented false-negative trade)
    assert summary(src, "f").is_pure


def test_async_functions_are_inferred_too():
    src = """
        class Loop:
            async def tick(self):
                local = []
                local.append(1)
                return local

            async def bump(self):
                self._n += 1
    """
    assert summary(src, "Loop.tick").is_pure
    assert effects(src, "Loop.bump") == {("self", "_n")}
