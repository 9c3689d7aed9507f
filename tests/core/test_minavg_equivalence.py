"""The one Fed-MinAvg must answer exactly as the loop it replaced.

``_reference_fed_minavg`` is that loop, moved here verbatim: a Python
scan over users per shard, one curve call per user per step, and a
winner that must beat the best so far by more than 1e-12. The kernel
in :mod:`repro.core.minavg` takes an exact ``argmin`` instead, so the
differential instances keep every pair of candidates either exactly
tied or far apart: cells, comm costs, ``alpha * K / |U_j|`` and
``beta`` are dyadic rationals (multiples of 2**-10 well below 2**12,
so every sum is exact and every gap is 0 or at least 2**-10), and a
row on the 1e-6 clamp floor pays no comm cost (two users on the floor
then differ by exactly their accuracy costs).
"""

import math
import sys
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accuracy_cost import AccuracyCostTracker
from repro.core.minavg import fed_minavg, fed_minavg_matrix
from repro.core.schedule import Schedule

SEMANTICS = ("disjoint", "coverage", "unique", "strict")


# -- the oracle: the pre-vectorisation implementation, verbatim -------------
def _reference_fed_minavg(
    time_curves: Sequence[Callable[[float], float]],
    user_classes: Sequence[Tuple[int, ...]],
    total_shards: int,
    shard_size: int,
    num_classes: int,
    alpha: float,
    beta: float = 0.0,
    capacities: Optional[Sequence[int]] = None,
    comm_costs: Optional[Sequence[float]] = None,
    semantics: str = "disjoint",
) -> Schedule:
    n = len(time_curves)
    if n == 0:
        raise ValueError("need at least one user")
    if len(user_classes) != n:
        raise ValueError("one class set per user required")
    if total_shards <= 0:
        raise ValueError("total_shards must be positive")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    caps = (
        np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        if capacities is None
        else np.asarray(capacities, dtype=np.int64)
    )
    if caps.shape != (n,):
        raise ValueError("capacities length must match users")
    if int(np.minimum(caps, total_shards).sum()) < total_shards:
        raise ValueError(
            "infeasible: total capacity below the requested shards"
        )
    comm = (
        np.zeros(n) if comm_costs is None else np.asarray(comm_costs, float)
    )
    if comm.shape != (n,):
        raise ValueError("comm_costs length must match users")

    tracker = AccuracyCostTracker(
        user_classes, num_classes, alpha, beta, semantics=semantics
    )
    shards = np.zeros(n, dtype=np.int64)
    opened = np.zeros(n, dtype=bool)
    closed = caps <= 0  # at capacity (zero-cap users start closed)
    # Cached alpha*F_j values, refreshed lazily: Eq. (6) values change
    # for *every* user when coverage or D_u changes, so we recompute the
    # candidates' costs each step (still O(n) per shard).

    for _ in range(total_shards):
        best_j = -1
        best_cost = math.inf
        for j in range(n):
            if closed[j]:
                continue
            f_j = tracker.scaled_cost(j)
            if opened[j]:
                t = time_curves[j](float((shards[j] + 1) * shard_size))
            else:
                t = time_curves[j](float(shard_size)) + comm[j]
            total = t + f_j
            if total < best_cost - 1e-12:
                best_cost = total
                best_j = j
        if best_j < 0:
            raise RuntimeError(
                "no assignable user left (all closed) before D exhausted"
            )
        shards[best_j] += 1
        opened[best_j] = True
        tracker.record_assignment(best_j, 1)
        if shards[best_j] >= caps[best_j]:
            closed[best_j] = True

    schedule = Schedule(
        shard_counts=shards,
        shard_size=shard_size,
        algorithm="fed-minavg",
        meta={
            "alpha": alpha,
            "beta": beta,
            "semantics": semantics,
            "coverage": tracker.coverage_fraction(),
        },
    )
    schedule.validate_total(total_shards)
    if capacities is not None:
        schedule.validate_capacities(caps)
    return schedule


# -- comparison helpers -------------------------------------------------------
#: K and the class-set sizes that keep ``alpha * K / |U_j|`` dyadic
NUM_CLASSES = 8
SHARD_SIZE = 100
UNIT = 2.0**-10
FLOOR = 1e-6


def curves_of(dense):
    """Curves that read ``T_j(k * d)`` off row ``j`` of a matrix."""

    def make(row):
        return lambda n_samples: float(row[round(n_samples / SHARD_SIZE) - 1])

    return [make(row) for row in dense]


def outcome(solver, *args, **kwargs):
    """What a solver did: its answer, or the exception it raised."""
    try:
        schedule = solver(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return schedule.shard_counts.tolist(), schedule.meta


def assert_same_as_reference(instance, semantics="disjoint"):
    rows, row_of, classes, total, alpha, beta, caps, comm = instance
    dense = rows[row_of]
    shared = (classes, total, SHARD_SIZE, NUM_CLASSES, alpha)
    options = dict(beta=beta, comm_costs=comm, semantics=semantics)
    # a curve cannot be asked for more shards than the matrix is wide
    width = np.full(len(row_of), dense.shape[1])
    clipped = width if caps is None else np.minimum(caps, width)
    want = outcome(
        _reference_fed_minavg,
        curves_of(dense),
        *shared,
        capacities=clipped,
        **options,
    )
    for got in (
        outcome(fed_minavg_matrix, dense, *shared, capacities=caps, **options),
        outcome(
            fed_minavg_matrix,
            rows,
            *shared,
            capacities=caps,
            row_of=row_of,
            **options,
        ),
        outcome(
            fed_minavg,
            curves_of(dense),
            *shared,
            capacities=clipped,
            **options,
        ),
    ):
        assert got == want
    return want


# -- instance generator -------------------------------------------------------
def dyadic(lo, hi):
    return st.integers(lo, hi).map(lambda units: units * UNIT)


@st.composite
def cost_row(draw, s):
    """One class row of ``s`` cells: affine, convex (quadratic), free
    (non-monotone), or leading cells on the clamp floor. Returns the
    row and whether it sits on the floor."""
    kind = draw(st.sampled_from(("affine", "convex", "free", "floor")))
    k = np.arange(1, s + 1, dtype=np.float64)
    if kind == "free":
        cells = draw(st.lists(dyadic(0, 4096), min_size=s, max_size=s))
        return np.array(cells), False
    base, slope = draw(dyadic(0, 2048)), draw(dyadic(0, 1024))
    if kind == "affine":
        return base + slope * k, False
    if kind == "convex":
        return base + slope * k + draw(dyadic(1, 256)) * k * k, False
    clamped = draw(st.integers(1, s))
    return np.maximum(slope * (k - clamped), FLOOR), True


@st.composite
def instances(draw, max_users=6, max_slots=7):
    """``(rows, row_of, classes, D, alpha, beta, caps, comm)`` in class
    form: a few distinct rows, users drawn onto them (so duplicated
    rows are the rule), caps that include zero and values above the
    width, and budgets at 1, at all the room there is, between, and one
    more than fits."""
    n = draw(st.integers(1, max_users))
    s = draw(st.integers(1, max_slots))
    g = draw(st.integers(1, min(n, 3)))
    drawn = [draw(cost_row(s)) for _ in range(g)]
    rows = np.array([row for row, _ in drawn])
    row_of = np.array(
        draw(st.lists(st.integers(0, g - 1), min_size=n, max_size=n))
    )
    classes = [
        tuple(
            draw(
                st.lists(
                    st.integers(0, NUM_CLASSES - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
        for size in draw(
            st.lists(st.sampled_from((1, 2, 4, 8)), min_size=n, max_size=n)
        )
    ]
    caps = None
    if draw(st.booleans()):
        caps = np.array(
            draw(st.lists(st.integers(0, s + 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    room = n * s if caps is None else int(np.minimum(caps, s).sum())
    total = draw(
        st.one_of(
            st.just(1),
            st.just(max(room, 1)),
            st.integers(1, max(room, 1) + 1),
        )
    )
    comm = None
    if draw(st.booleans()):
        on_floor = np.array([floor for _, floor in drawn])[row_of]
        comm = np.where(
            on_floor,
            0.0,
            draw(st.lists(dyadic(0, 4096), min_size=n, max_size=n)),
        )
    alpha = draw(st.integers(0, 1024)) / 16.0
    beta = draw(st.sampled_from((0.0, 0.0625, 1.0, 2.0, 37.5)))
    return rows, row_of, classes, total, alpha, beta, caps, comm


class TestDifferential:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    @settings(max_examples=250, deadline=None)
    @given(instance=instances())
    def test_same_answer_as_the_loop(self, semantics, instance):
        assert_same_as_reference(instance, semantics)

    @settings(max_examples=200, deadline=None)
    @given(instance=instances(), data=st.data())
    def test_cost_vector_is_the_per_user_costs(self, instance, data):
        """``scaled_costs()`` is ``scaled_cost(j)`` for every ``j``,
        bit for bit, along any assignment history."""
        _, row_of, classes, total, alpha, beta, _, _ = instance
        semantics = data.draw(st.sampled_from(SEMANTICS))
        tracker = AccuracyCostTracker(
            classes, NUM_CLASSES, alpha, beta, semantics=semantics
        )
        for _ in range(min(total, 12)):
            each = [tracker.scaled_cost(j) for j in range(len(row_of))]
            assert tracker.scaled_costs().tolist() == each
            tracker.record_assignment(
                data.draw(st.integers(0, len(row_of) - 1)),
                data.draw(st.integers(1, 3)),
            )


class TestCorners:
    CLASSES = [(0, 1), (1, 2), (7,), (0, 1, 2, 3)]

    def instance(self, rows, total, caps=None, comm=None, beta=2.0):
        rows = np.asarray(rows, dtype=np.float64)
        n = len(rows)
        return (
            rows, np.arange(n), self.CLASSES[:n], total, 4.0, beta, caps,
            comm,
        )

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_one_user(self, semantics):
        counts, _ = assert_same_as_reference(
            self.instance([[1.0, 2.0, 4.0]], 3), semantics
        )
        assert counts == [3]

    def test_zero_capacity_users_never_get_work(self):
        rows = [[0.0, 0.0, 0.0], [5.0, 9.0, 14.0], [6.0, 7.0, 8.0]]
        counts, _ = assert_same_as_reference(
            self.instance(rows, 4, caps=np.array([0, 3, 3]))
        )
        assert counts[0] == 0 and sum(counts) == 4

    def test_budget_equal_to_total_capacity(self):
        rows = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [9.0, 9.5, 50.0]]
        counts, _ = assert_same_as_reference(
            self.instance(rows, 6, caps=np.array([2, 1, 3]))
        )
        assert counts == [2, 1, 3]

    def test_exact_ties_go_to_the_lowest_index(self):
        rows = [[2.0, 4.0], [2.0, 4.0], [2.0, 4.0]]
        same = [(0, 1), (0, 1), (0, 1)]
        instance = (
            np.array(rows), np.arange(3), same, 4, 4.0, 0.0, None, None,
        )
        counts, _ = assert_same_as_reference(instance)
        assert counts == [2, 1, 1]

    def test_comm_is_paid_once_at_opening(self):
        rows = [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]
        same = [(0, 1), (0, 1)]
        instance = (
            np.array(rows), np.arange(2), same, 4, 0.0, 0.0, None,
            np.array([0.0, 2.5]),
        )
        counts, _ = assert_same_as_reference(instance)
        # user 1 opens at 1 + 2.5, after user 0's third shard (3.0)
        assert counts == [3, 1]

    def test_a_convex_row_is_read_cell_by_cell(self):
        """No line through a quadratic row gives these costs: the
        secant over the whole row prices its first cells too high."""
        k = np.arange(1, 9, dtype=np.float64)
        rows = [0.25 * k * k, 2.0 * k]
        counts, _ = assert_same_as_reference(self.instance(rows, 8, beta=0.0))
        assert counts == [5, 3]

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_leading_cells_on_the_clamp_floor(self, semantics):
        """ROADMAP 6(a): a profile clamped at 1e-6 below ~1 000 samples
        (the nexus6p's) is flat, then steep; its owner looks free until
        the floor ends."""
        k = np.arange(1, 9, dtype=np.float64)
        floor = np.maximum(8.0 * (k - 4), FLOOR)
        rows = np.array([floor, 1.5 * k, floor, 0.5 + 1.25 * k])
        counts, _ = assert_same_as_reference(
            self.instance(rows, 14), semantics
        )
        if semantics == "disjoint":
            assert counts == [4, 0, 3, 7]

    def test_duplicated_rows_are_the_gathered_matrix(self):
        rng = np.random.default_rng(22)
        rows = np.cumsum(rng.integers(0, 64, (3, 9)) * UNIT, axis=1)
        row_of = rng.integers(0, 3, 40)
        classes = [
            tuple(rng.choice(8, size=int(size), replace=False).tolist())
            for size in rng.choice((1, 2, 4, 8), 40)
        ]
        caps = rng.integers(0, 11, 40)
        instance = (rows, row_of, classes, 120, 12.5, 2.0, caps, None)
        counts, meta = assert_same_as_reference(instance)
        assert sum(counts) == 120 and meta["coverage"] == 1.0


class TestErrorParity:
    def test_the_loop_and_the_kernel_refuse_alike(self):
        rows = np.array([[1.0, 2.0], [1.0, 3.0]])
        both = [(0,), (1,)]
        fits = (rows, np.arange(2), both, 4, 1.0, 0.0, None, None)
        over = (rows, np.arange(2), both, 5, 1.0, 0.0, None, None)
        capped = (
            rows, np.arange(2), both, 3, 1.0, 0.0, np.array([1, 1]), None,
        )
        assert assert_same_as_reference(fits)[0] == [2, 2]
        for instance in (over, capped):
            kind, message = assert_same_as_reference(instance)
            assert (kind, message) == (
                "ValueError",
                "infeasible: total capacity below the requested shards",
            )

    def test_shape_errors(self):
        rows = np.array([[1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match="one class set per user"):
            fed_minavg_matrix(rows, [(0,)], 2, 100, 10, 1.0)
        with pytest.raises(ValueError, match="capacities length"):
            fed_minavg_matrix(
                rows, [(0,), (1,)], 2, 100, 10, 1.0, capacities=[1]
            )
        with pytest.raises(ValueError, match="comm_costs length"):
            fed_minavg_matrix(
                rows, [(0,), (1,)], 2, 100, 10, 1.0, comm_costs=[1.0]
            )
        with pytest.raises(ValueError, match="2-D"):
            fed_minavg_matrix(rows[0], [(0,), (1,)], 2, 100, 10, 1.0)
        with pytest.raises(ValueError, match="NaN/inf"):
            fed_minavg_matrix(
                np.array([[1.0, np.nan]]), [(0,)], 2, 100, 10, 1.0
            )


class TestNoPerUserPythonLoop:
    """Host-independent pin on the kernel's shape: under the default
    semantics the number of function calls (Python and C) one solve
    makes grows with the shards, not with the users. The loop made
    about 1.9 million at this size."""

    def test_call_count_at_a_thousand_users(self):
        rng = np.random.default_rng(22)
        n, s = 1000, 600
        rows = np.cumsum(rng.uniform(0.01, 1.0, (4, s)), axis=1)
        row_of = rng.integers(0, 4, n)
        classes = [
            tuple(rng.choice(10, size=4, replace=False).tolist())
            for _ in range(n)
        ]
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profiler)
        try:
            schedule = fed_minavg_matrix(
                rows, classes, s, 100, 10, 200.0, 2.0, row_of=row_of
            )
        finally:
            sys.setprofile(None)
        assert schedule.total_shards == s
        # ~20 per shard plus ~7 per user to read the class sets
        assert calls < 40_000, calls
