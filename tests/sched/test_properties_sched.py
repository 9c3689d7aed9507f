"""Property-based invariants every registered scheduler must satisfy.

For arbitrary valid instances (random monotone cost matrices, random
capacities), each registered scheduler must (a) conserve the shard
budget exactly, (b) respect per-user capacity bounds and (c) be a pure
function of its problem; OLAR must additionally match the brute-force
P1 optimum on small instances.
"""

import pickle
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute import brute_force_makespan
from repro.sched import (
    OLARScheduler,
    SchedulingProblem,
    available_schedulers,
    get_scheduler,
    scheduler_class,
)


def build_instance(seed, n_users, total_shards, capped):
    rng = np.random.default_rng(seed)
    n_slots = total_shards
    time_cost = np.cumsum(
        rng.uniform(0.05, 2.0, size=(n_users, n_slots)), axis=1
    )
    energy_cost = np.cumsum(
        rng.uniform(0.05, 3.0, size=(n_users, n_slots)), axis=1
    )
    capacities = None
    if capped:
        # feasible by construction: partition the budget, then pad
        splits = rng.multinomial(
            total_shards, np.full(n_users, 1.0 / n_users)
        )
        capacities = splits + rng.integers(0, 3, n_users)
    classes = [
        tuple(
            int(c)
            for c in rng.choice(10, size=int(rng.integers(1, 4)),
                                replace=False)
        )
        for _ in range(n_users)
    ]
    return SchedulingProblem(
        time_cost=time_cost,
        total_shards=total_shards,
        shard_size=50,
        energy_cost=energy_cost,
        capacities=capacities,
        user_classes=classes,
        alpha=10.0,
        rng=seed,
    )


def _pickled(items):
    """``{key: pickle.dumps(value)}``; a value pickle refuses (a lock,
    a thread-local, a table of lambdas) is held by identity, so only
    its rebinding shows."""
    state = {}
    for key, value in items:
        try:
            state[key] = pickle.dumps(value)
        except (TypeError, AttributeError, pickle.PicklingError):
            state[key] = id(value)
    return state


def _reachable_state(scheduler, problem, modules):
    """What ``scheduler.schedule(problem)`` must leave as it found it:
    the scheduler's fields, the problem's fields (bar ``_dense``, the
    matrix views a read fills on demand) and the data globals of
    ``modules`` (everything but dunders, callables and modules)."""
    return {
        "scheduler's fields": _pickled(vars(scheduler).items()),
        "problem's fields": _pickled(
            (k, v) for k, v in vars(problem).items() if k != "_dense"
        ),
        "module globals": _pickled(
            ((name, key), value)
            for name in modules
            for key, value in vars(sys.modules[name]).items()
            if not (
                key.startswith("__")
                or callable(value)
                or isinstance(value, types.ModuleType)
            )
        ),
    }


def assert_schedule_is_pure(cls, problem, warm_problem):
    """``cls().schedule`` is a function of ``problem`` alone.

    A warm-up call on another problem runs lazy imports and first-call
    set-up first. The state is taken before the first call on
    ``problem``, so a cache filled by that call shows. Two calls on one
    instance and one on a fresh instance must then give bit-equal
    answers and leave the scheduler, the problem and the globals of
    every loaded ``repro`` module (and of ``cls``'s own) unchanged.
    """
    scheduler = cls()
    scheduler.schedule(warm_problem)
    modules = sorted(
        {cls.__module__}
        | {n for n in list(sys.modules) if n.partition(".")[0] == "repro"}
    )
    before = _reachable_state(scheduler, problem, modules)
    first = scheduler.schedule(problem)
    for other in (scheduler.schedule(problem), cls().schedule(problem)):
        assert np.array_equal(other.shard_counts, first.shard_counts)
        assert (
            other.predicted_makespan_s.hex()
            == first.predicted_makespan_s.hex()
        )
    after = _reachable_state(scheduler, problem, modules)
    for what, state in before.items():
        changed = sorted(
            k for k in state.keys() | after[what].keys()
            if state.get(k) != after[what].get(k)
        )
        assert not changed, f"schedule() changed the {what}: {changed}"


@pytest.mark.parametrize("name", available_schedulers())
class TestSchedulerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 12),
        capped=st.booleans(),
    )
    def test_conserves_total_and_respects_capacities(
        self, name, seed, n_users, total_shards, capped
    ):
        problem = build_instance(seed, n_users, total_shards, capped)
        assignment = get_scheduler(name).schedule(problem)
        counts = assignment.shard_counts
        assert int(counts.sum()) == total_shards
        assert (counts >= 0).all()
        assert (counts <= problem.effective_capacities()).all()
        # the predicted makespan is the cost-model bottleneck
        expected = problem.predicted_makespan(counts)
        assert assignment.predicted_makespan_s == pytest.approx(
            expected
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 12),
        capped=st.booleans(),
    )
    def test_schedule_is_pure(
        self, name, seed, n_users, total_shards, capped
    ):
        # build_instance's rng is an int seed: a randomised scheduler
        # draws from a Generator it is handed, by design, so a problem
        # carrying one would answer differently on every call
        assert_schedule_is_pure(
            scheduler_class(name),
            build_instance(seed, n_users, total_shards, capped),
            build_instance(seed + 1, n_users, total_shards + 1, capped),
        )


class _NotesHistory(OLARScheduler):
    """Keeps every answer: ``self._hist.append`` two calls down."""

    def __init__(self):
        self._hist = []

    def schedule(self, problem):
        out = super().schedule(problem)
        self._note(out)
        return out

    def _note(self, out):
        self._hist.append(out)


_SOLVED = {}


class _CachesByShape(OLARScheduler):
    """Reuses answers through a module-level dict."""

    def schedule(self, problem):
        key = (problem.n_users, problem.total_shards)
        if key not in _SOLVED:
            _SOLVED[key] = super().schedule(problem)
        return _SOLVED[key]


class _CountsVisits(OLARScheduler):
    """Mutual recursion whose far end writes ``self``."""

    def __init__(self):
        self._visits = 0

    def schedule(self, problem):
        self._down(problem.total_shards)
        return super().schedule(problem)

    def _down(self, n):
        if n > 0:
            self._up(n - 1)

    def _up(self, n):
        self._visits += 1
        self._down(n)


@pytest.mark.parametrize(
    "cls,caught_by",
    [
        (_NotesHistory, "scheduler's fields"),
        (_CachesByShape, "module globals"),
        (_CountsVisits, "scheduler's fields"),
    ],
    ids=["self-write-two-calls-down", "module-dict-cache", "recursion"],
)
def test_purity_check_catches(cls, caught_by):
    """Each impure pattern (none registered) fails the live check, on
    the snapshot that can see it: their answers are all OLAR's."""
    with pytest.raises(AssertionError, match=f"changed the {caught_by}"):
        assert_schedule_is_pure(
            cls,
            build_instance(0, 4, 10, capped=False),
            build_instance(1, 4, 11, capped=False),
        )


class TestOlarOptimality:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 10),
    )
    def test_matches_brute_force_optimum(
        self, seed, n_users, total_shards
    ):
        """Acceptance: OLAR == exhaustive optimum on all small
        uncapacitated instances (n <= 6 users)."""
        problem = build_instance(seed, n_users, total_shards, False)
        assignment = get_scheduler("olar").schedule(problem)
        _, optimum = brute_force_makespan(
            problem.time_cost, total_shards
        )
        assert assignment.predicted_makespan_s == pytest.approx(
            optimum
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        total_shards=st.integers(1, 10),
    )
    def test_agrees_with_fed_lbap(self, seed, n_users, total_shards):
        """Two exact P1 solvers must report the same bottleneck."""
        problem = build_instance(seed, n_users, total_shards, False)
        olar = get_scheduler("olar").schedule(problem)
        lbap = get_scheduler("fed_lbap").schedule(problem)
        assert olar.predicted_makespan_s == pytest.approx(
            lbap.predicted_makespan_s
        )
