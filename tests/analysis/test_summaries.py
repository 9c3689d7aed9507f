"""The interprocedural summary engine, on its own.

:class:`repro.analysis.project.Summaries` decides what a summary means
on a recursive call graph for every pass built on it (blocking-reach,
taint, purity). Its contract — each key's summary is the least fixed
point of ``infer`` over the graph, whatever the order of queries, and
a memoised key is never inferred again — is checked here against a
global Kleene iteration on random call graphs (self-loops, nested and
overlapping cycles, callees no table knows), with an ``infer`` shaped
like the real ones: a monotone set union whose call edges may rewrite
what they carry (the way a parameter effect is renamed at a call site
— without that, one pass from the head already is the fixed point and
the head's iteration goes untested), plus a representative chain that
lengthens on every trip round a cycle.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, FrozenSet, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.project import Summaries

#: one summary: (facts — the lattice part, representative chain)
Value = Tuple[FrozenSet[int], Tuple[str, ...]]
#: key -> (own facts, call edges: (callee, does the edge bump facts?))
Graph = Dict[str, Tuple[FrozenSet[int], Tuple[Tuple[str, bool], ...]]]

BOTTOM: Value = (frozenset(), ())
TOP_FACT = 5
#: a correct engine needs far fewer; a diverging one never stops
MAX_INFERS = 20_000
#: every query order is tried up to this many functions (5! = 120);
#: larger graphs get the orders hypothesis draws plus their reverses
EXHAUSTIVE_UP_TO = 5


@st.composite
def call_graphs(draw) -> Tuple[Graph, List[str]]:
    n = draw(st.integers(min_value=1, max_value=8))
    keys = [f"f{i}" for i in range(n)]
    # callees may be the function itself, any other function, or a
    # name the table does not know (an unresolved call: bottom)
    edge = st.tuples(
        st.sampled_from(keys + ["ext0", "ext1"]), st.booleans()
    )
    graph: Graph = {
        key: (
            draw(st.frozensets(st.integers(0, TOP_FACT), max_size=2)),
            tuple(draw(st.lists(edge, max_size=4))),
        )
        for key in keys
    }
    return graph, draw(st.permutations(keys))


def carried(facts: FrozenSet[int], bump: bool) -> FrozenSet[int]:
    """What a call edge hands its caller (monotone either way)."""
    if not bump:
        return facts
    return frozenset(min(fact + 1, TOP_FACT) for fact in facts)


def kleene(graph: Graph) -> Dict[str, FrozenSet[int]]:
    """The least fixed point, by global iteration from bottom."""
    facts = {key: frozenset() for key in graph}
    changed = True
    while changed:
        changed = False
        for key, (own, edges) in graph.items():
            new = own.union(
                *(
                    carried(facts.get(callee, frozenset()), bump)
                    for callee, bump in edges
                )
            )
            if new != facts[key]:
                facts[key] = new
                changed = True
    return facts


def engine_for(graph: Graph) -> Tuple[Summaries[Value], List[str]]:
    inferred: List[str] = []

    def infer(key: str) -> Value:
        assert key not in engine._done, f"{key} inferred after memoising"
        inferred.append(key)
        assert len(inferred) < MAX_INFERS, "diverged"
        if key not in graph:
            return BOTTOM
        own, edges = graph[key]
        facts, chain = set(own), (key,)
        for callee, bump in edges:
            callee_facts, callee_chain = engine.get(callee)
            facts |= carried(callee_facts, bump)
            if len(chain) == 1 and callee_facts:
                chain = (key, *callee_chain)
        return (frozenset(facts), chain)

    engine: Summaries[Value] = Summaries(infer, BOTTOM, lambda v: v[0])
    return engine, inferred


@settings(max_examples=300, deadline=None)
@given(call_graphs())
def test_get_is_the_least_fixed_point_in_every_query_order(drawn):
    graph, drawn_order = drawn
    expected = kleene(graph)
    if len(graph) <= EXHAUSTIVE_UP_TO:
        orders = list(permutations(sorted(graph)))
    else:
        orders = [tuple(drawn_order), tuple(reversed(drawn_order))]
    for order in orders:
        engine, inferred = engine_for(graph)
        got = {key: engine.get(key)[0] for key in order}
        assert got == expected, order
        # asked again, every key answers from the memo
        before = len(inferred)
        assert {key: engine.get(key)[0] for key in order} == expected
        assert len(inferred) == before


def test_unknown_key_is_bottom_and_cycle_head_iterates():
    graph: Graph = {
        "ping": (frozenset({3}), (("pong", True),)),
        "pong": (frozenset(), (("ping", False), ("nowhere", False))),
    }
    for order in (("ping", "pong"), ("pong", "ping")):
        engine, _ = engine_for(graph)
        # 3 -> 4 -> 5 round the bumping cycle: two more trips than one
        # pass from the head would take
        assert {engine.get(key)[0] for key in order} == {
            frozenset({3, 4, 5})
        }
        assert engine.get("nowhere") == BOTTOM
