"""Forward dataflow over :mod:`repro.analysis.cfg` graphs.

A deliberately small framework: rules declare a lattice by subclassing
:class:`ForwardAnalysis` (bottom element, join, and a per-unit transfer
function) and :func:`solve_forward` runs the classic worklist algorithm
to a fixed point, returning the fact at entry to every block. Facts
must be immutable (frozensets, tuples, bools) so join/compare are
value-based and the solver can detect convergence.

Two stock analyses ship here:

* :class:`ReachingDefinitions` — which ``(name, lineno)`` bindings may
  reach each block; the textbook forward may-analysis, used by the
  tests to pin solver behaviour on cyclic graphs.
* :class:`MaySuspend` — a one-bit fact: has control possibly crossed a
  suspension edge since function entry? The async rules use richer
  variants of the same shape (held-lock sets, fleet aliases).

Block-level facts are often too coarse for a finding's line number;
:func:`unit_facts` re-runs the transfer function through one block's
unit list, yielding the fact *before* each unit, so a rule can say
"at this await, lock ``l`` was still held".
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Generic, Iterator, List, Tuple, TypeVar

from .cfg import CFG, Edge, Unit, WithExit, walk_function_body

__all__ = [
    "ForwardAnalysis",
    "MayUnion",
    "solve_forward",
    "unit_facts",
    "ReachingDefinitions",
    "MaySuspend",
    "MAX_ITERATIONS",
]

F = TypeVar("F")

#: hard cap on worklist iterations; a correct monotone lattice of
#: finite height converges far below this — hitting it is a rule bug
MAX_ITERATIONS = 10_000


class ForwardAnalysis(ABC, Generic[F]):
    """A forward may/must analysis: lattice + transfer function."""

    @abstractmethod
    def initial(self, cfg: CFG) -> F:
        """Fact at function entry."""

    @abstractmethod
    def bottom(self) -> F:
        """Identity element of :meth:`join` (fact for unreached code)."""

    @abstractmethod
    def join(self, a: F, b: F) -> F:
        """Merge facts where control-flow paths meet."""

    @abstractmethod
    def transfer(self, fact: F, unit: Unit) -> F:
        """Fact after executing one unit."""

    def transfer_edge(self, fact: F, edge: Edge) -> F:
        """Fact after traversing one edge (default: unchanged).

        Suspension-aware analyses override this — the edge, not any
        statement, is where the event loop may interleave.
        """
        return fact


E = TypeVar("E")


class MayUnion(ForwardAnalysis[FrozenSet[E]]):
    """A may-analysis over sets: unreached code knows nothing, facts
    meeting at a join are united."""

    def bottom(self) -> FrozenSet[E]:
        return frozenset()

    def join(self, a: FrozenSet[E], b: FrozenSet[E]) -> FrozenSet[E]:
        return a | b


def _block_out(analysis: ForwardAnalysis[F], cfg: CFG, idx: int, fact: F) -> F:
    for unit in cfg.blocks[idx].units:
        fact = analysis.transfer(fact, unit)
    return fact


def solve_forward(cfg: CFG, analysis: ForwardAnalysis[F]) -> Dict[int, F]:
    """Worklist fixed point; returns the entry fact of each block."""
    entry_fact: Dict[int, F] = {
        block.idx: analysis.bottom() for block in cfg.blocks
    }
    entry_fact[cfg.entry] = analysis.initial(cfg)

    worklist: List[int] = cfg.rpo()
    queued = set(worklist)
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RuntimeError(
                f"dataflow solver did not converge on {cfg.name!r} "
                f"after {MAX_ITERATIONS} iterations"
            )
        idx = worklist.pop(0)
        queued.discard(idx)
        out = _block_out(analysis, cfg, idx, entry_fact[idx])
        for edge in cfg.successors(idx):
            along = analysis.transfer_edge(out, edge)
            merged = analysis.join(entry_fact[edge.dst], along)
            if merged != entry_fact[edge.dst]:
                entry_fact[edge.dst] = merged
                if edge.dst not in queued:
                    worklist.append(edge.dst)
                    queued.add(edge.dst)
    return entry_fact


def unit_facts(
    analysis: ForwardAnalysis[F], cfg: CFG, idx: int, entry: F
) -> Iterator[Tuple[F, Unit]]:
    """Yield ``(fact before unit, unit)`` through one block."""
    fact = entry
    for unit in cfg.blocks[idx].units:
        yield fact, unit
        fact = analysis.transfer(fact, unit)


# ---------------------------------------------------------------------------
# stock analyses


def _binding_targets(unit: Unit) -> List[Tuple[str, int]]:
    """Names (re)bound by one unit, with the binding line."""
    out: List[Tuple[str, int]] = []
    if isinstance(unit, WithExit):
        return out
    node = unit

    def _names(target: ast.expr) -> Iterator[ast.Name]:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, ast.Store
            ):
                yield sub

    if isinstance(node, ast.Assign):
        for target in node.targets:
            out.extend((n.id, n.lineno) for n in _names(target))
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        out.extend((n.id, n.lineno) for n in _names(node.target))
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        out.extend((n.id, n.lineno) for n in _names(node.target))
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            if item.optional_vars is not None:
                out.extend(
                    (n.id, n.lineno) for n in _names(item.optional_vars)
                )
    elif isinstance(node, ast.NamedExpr):  # pragma: no cover - stmt-level
        out.append((node.target.id, node.target.lineno))
    else:
        # walrus inside an expression statement / test
        for sub in walk_function_body(node):
            if isinstance(sub, ast.NamedExpr) and sub is not node:
                out.append((sub.target.id, sub.target.lineno))
    return out


Defs = FrozenSet[Tuple[str, int]]


class ReachingDefinitions(MayUnion[Tuple[str, int]]):
    """Which ``(name, lineno)`` bindings may reach a program point."""

    def __init__(self, params: Tuple[str, ...] = ()) -> None:
        self.params = params

    def initial(self, cfg: CFG) -> Defs:
        return frozenset((name, 0) for name in self.params)

    def transfer(self, fact: Defs, unit: Unit) -> Defs:
        bound = _binding_targets(unit)
        if not bound:
            return fact
        killed = {name for name, _ in bound}
        kept = {(n, ln) for n, ln in fact if n not in killed}
        return frozenset(kept | set(bound))


class MaySuspend(ForwardAnalysis[bool]):
    """Has control possibly crossed a suspension edge yet?"""

    def initial(self, cfg: CFG) -> bool:
        return False

    def bottom(self) -> bool:
        return False

    def join(self, a: bool, b: bool) -> bool:
        return a or b

    def transfer(self, fact: bool, unit: Unit) -> bool:
        return fact

    def transfer_edge(self, fact: bool, edge: Edge) -> bool:
        return fact or edge.suspends
