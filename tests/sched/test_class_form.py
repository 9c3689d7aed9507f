"""Class form = dense form, for every registered scheduler.

A :class:`SchedulingProblem` holds distinct cost rows plus each user's
row index; a dense ``time_cost=`` matrix is the same thing with one row
per user. The two constructions of one instance must give every
scheduler the same answer bit for bit, and no scheduler may gather the
``n x s`` view to get there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    SchedulingProblem,
    available_schedulers,
    get_scheduler,
)
from repro.sched.binding import restrict_problem


def build_pair(
    seed, n_users, n_rows, total_shards, caps_kind, duplicate, weighted
):
    """One instance twice: ``(class_form, dense_form)``."""
    rng = np.random.default_rng(seed)
    n_slots = total_shards + int(rng.integers(0, 3))
    time_rows = np.cumsum(
        rng.uniform(0.05, 2.0, size=(n_rows, n_slots)), axis=1
    )
    energy_rows = np.cumsum(
        rng.uniform(0.05, 3.0, size=(n_rows, n_slots)), axis=1
    )
    if duplicate:
        # two classes with bit-equal rows
        time_rows = np.vstack([time_rows, time_rows[:1]])
        energy_rows = np.vstack([energy_rows, energy_rows[:1]])
    row_of = rng.integers(0, len(time_rows), n_users)
    capacities = None
    if caps_kind != "none":
        # feasible by construction: partition the budget, then pad —
        # or not ("tight": D = sum of caps, every user exactly full)
        capacities = rng.multinomial(
            total_shards, np.full(n_users, 1.0 / n_users)
        )
        if caps_kind == "slack":
            capacities = capacities + rng.integers(0, 3, n_users)
    shared = dict(
        total_shards=total_shards,
        shard_size=50,
        capacities=capacities,
        user_classes=[
            tuple(
                int(c)
                for c in rng.choice(
                    10, size=int(rng.integers(1, 4)), replace=False
                )
            )
            for _ in range(n_users)
        ],
        alpha=10.0,
        weights=rng.uniform(0.5, 2.0, n_users) if weighted else None,
        rng=seed,
    )
    class_form = SchedulingProblem(
        time_rows=time_rows,
        energy_rows=energy_rows,
        row_of=row_of,
        **shared,
    )
    dense_form = SchedulingProblem(
        time_cost=time_rows[row_of],
        energy_cost=energy_rows[row_of],
        **shared,
    )
    return class_form, dense_form


def outcome(name, problem):
    """What a scheduler says, or the error it raises."""
    try:
        a = get_scheduler(name).schedule(problem)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return (
        a.shard_counts.tolist(),
        a.predicted_makespan_s,
        a.predicted_energy_j,
    )


@pytest.mark.parametrize("name", available_schedulers())
class TestClassFormEqualsDenseForm:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 7),
        n_rows=st.integers(1, 4),
        total_shards=st.integers(1, 12),
        caps_kind=st.sampled_from(["none", "slack", "tight"]),
        duplicate=st.booleans(),
        weighted=st.booleans(),
    )
    def test_same_answer_bit_for_bit(
        self,
        name,
        seed,
        n_users,
        n_rows,
        total_shards,
        caps_kind,
        duplicate,
        weighted,
    ):
        class_form, dense_form = build_pair(
            seed, n_users, n_rows, total_shards, caps_kind,
            duplicate, weighted,
        )
        assert outcome(name, class_form) == outcome(name, dense_form)
        assert class_form._dense == {}

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(2, 7),
        n_rows=st.integers(1, 4),
        total_shards=st.integers(1, 12),
        duplicate=st.booleans(),
    )
    def test_same_answer_under_restriction(
        self, name, seed, n_users, n_rows, total_shards, duplicate
    ):
        """Zeroed capacities (a re-plan after churn) on both forms."""
        class_form, dense_form = build_pair(
            seed, n_users, n_rows, total_shards, "none", duplicate, False
        )
        rng = np.random.default_rng(seed + 1)
        eligible = np.flatnonzero(rng.random(n_users) < 0.6).tolist()
        if not eligible:
            eligible = [int(rng.integers(0, n_users))]
        restricted = restrict_problem(class_form, eligible)
        assert outcome(name, restricted) == outcome(
            name, restrict_problem(dense_form, eligible)
        )
        assert restricted._dense == {}

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 6),
        n_rows=st.integers(1, 3),
        total_shards=st.integers(1, 10),
        quantile=st.floats(0.2, 1.0),
    )
    def test_same_answer_under_a_makespan_cap(
        self, name, seed, n_users, n_rows, total_shards, quantile
    ):
        """The deadline prefix is found per distinct row; an
        infeasible cap raises the same error from both forms."""
        class_form, dense_form = build_pair(
            seed, n_users, n_rows, total_shards, "slack", True, False
        )
        cap = float(np.quantile(class_form.time_rows, quantile))
        class_form.makespan_cap_s = dense_form.makespan_cap_s = cap
        assert outcome(name, class_form) == outcome(name, dense_form)


class TestDenseView:
    def pair(self):
        return build_pair(3, 6, 3, 8, "slack", True, False)

    def test_reads_as_the_gathered_matrix(self):
        class_form, dense_form = self.pair()
        assert class_form._dense == {}
        assert np.array_equal(class_form.time_cost, dense_form.time_cost)
        assert np.array_equal(
            class_form.energy_cost, dense_form.energy_cost
        )
        assert class_form.time_cost.shape == (6, class_form.n_slots)
        assert not class_form.time_cost.flags.writeable
        assert not class_form.energy_cost.flags.writeable
        # gathered once, then the same array
        assert class_form.time_cost is class_form.time_cost

    def test_a_dense_problem_is_rows_with_the_identity_index(self):
        _, dense_form = self.pair()
        assert dense_form.row_of.tolist() == list(range(6))
        assert dense_form.time_cost is dense_form.time_rows
        assert dense_form.energy_cost is dense_form.energy_rows

    def test_no_energy_rows_no_energy_view(self):
        p = SchedulingProblem(
            time_rows=np.array([[1.0, 2.0]]),
            row_of=np.array([0, 0, 0]),
            total_shards=4,
        )
        assert p.energy_cost is None
        assert p.predicted_energy(np.array([2, 2, 0])) is None
        assert p.n_users == 3 and p.n_slots == 2

    def test_clones_share_rows_index_and_views(self):
        class_form, _ = self.pair()
        clone = class_form.with_capacities(np.full(6, 8))
        restricted = restrict_problem(class_form, [0, 1, 2, 3, 4])
        for other in (clone, restricted):
            assert other.time_rows is class_form.time_rows
            assert other.energy_rows is class_form.energy_rows
            assert other.row_of is class_form.row_of
        assert class_form._dense == {}
        # whichever of them gathers the view first, all see that array
        view = restricted.time_cost
        assert clone.time_cost is view
        assert class_form.time_cost is view
        assert class_form.energy_cost is clone.energy_cost
        assert np.shares_memory(
            restricted.energy_cost, class_form.energy_cost
        )

    def test_rows_are_private_frozen_copies(self):
        rows = np.array([[1.0, 2.0], [2.0, 3.0]])
        index = np.array([1, 0, 1])
        p = SchedulingProblem(time_rows=rows, row_of=index, total_shards=3)
        rows[0, 0] = 99.0
        index[0] = 0
        assert p.time_rows[0, 0] == 1.0
        assert p.row_of.tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="read-only"):
            p.time_rows[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            p.row_of[0] = 0


class TestClassFormValidation:
    rows = np.array([[1.0, 2.0], [2.0, 3.0]])

    def test_the_checks_run_on_the_rows(self):
        with pytest.raises(ValueError, match="NaN/inf"):
            SchedulingProblem(
                time_rows=np.array([[1.0, np.nan]]),
                row_of=np.array([0, 0]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="negative"):
            SchedulingProblem(
                time_rows=self.rows,
                energy_rows=-self.rows,
                row_of=np.array([0, 1]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="shape must match"):
            SchedulingProblem(
                time_rows=self.rows,
                energy_rows=self.rows[:, :1],
                row_of=np.array([0, 1]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="infeasible"):
            SchedulingProblem(
                time_rows=self.rows,
                row_of=np.array([0, 1, 1]),
                total_shards=7,
            )

    def test_the_index_must_fit_the_rows(self):
        for bad in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="row_of must index"):
                SchedulingProblem(
                    time_rows=self.rows,
                    row_of=np.array(bad),
                    total_shards=1,
                )
        with pytest.raises(ValueError, match="integer index"):
            SchedulingProblem(
                time_rows=self.rows,
                row_of=np.array([0.0, 1.0]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="1-D"):
            SchedulingProblem(
                time_rows=self.rows,
                row_of=np.array([[0, 1]]),
                total_shards=1,
            )
        with pytest.raises(ValueError, match="at least one user"):
            SchedulingProblem(
                time_rows=self.rows,
                row_of=np.array([], dtype=np.int64),
                total_shards=1,
            )

    def test_one_form_or_the_other(self):
        index = np.array([0, 1])
        for kwargs in (
            {},
            {"time_rows": self.rows},
            {"row_of": index},
            {"time_cost": self.rows, "row_of": index},
            {"time_cost": self.rows, "energy_rows": self.rows},
            {"time_cost": self.rows, "time_rows": self.rows,
             "row_of": index},
            {"time_rows": self.rows, "row_of": index,
             "energy_cost": self.rows},
        ):
            with pytest.raises(TypeError, match="time_rows with row_of"):
                SchedulingProblem(total_shards=1, **kwargs)


class TestLooseFunctionsTakeAnIndex:
    """``fed_lbap`` / ``olar_assign`` / ``min_energy_assign`` /
    ``repair_to_capacities`` on rows + index equal themselves on the
    gathered matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_users=st.integers(1, 8),
        n_rows=st.integers(1, 4),
        total_shards=st.integers(1, 12),
    )
    def test_rows_plus_index_equal_the_gathered_matrix(
        self, seed, n_users, n_rows, total_shards
    ):
        from repro.core.lbap import fed_lbap
        from repro.sched.adapters import repair_to_capacities
        from repro.sched.minenergy import min_energy_assign
        from repro.sched.olar import olar_assign

        p, _ = build_pair(
            seed, n_users, n_rows, total_shards, "slack", True, False
        )
        time, energy, index = p.time_rows, p.energy_rows, p.row_of
        caps = p.effective_capacities()
        a, c_a = fed_lbap(time, total_shards, 1, caps, row_of=index)
        b, c_b = fed_lbap(time[index], total_shards, 1, caps)
        assert a.shard_counts.tolist() == b.shard_counts.tolist()
        assert c_a == c_b
        assert (
            olar_assign(time, total_shards, caps, index).tolist()
            == olar_assign(time[index], total_shards, caps).tolist()
        )
        cap_s = float(np.quantile(time, 0.9))
        try:
            want = min_energy_assign(
                energy[index], total_shards, caps,
                time_cost=time[index], makespan_cap_s=cap_s,
            ).tolist()
        except ValueError as exc:
            with pytest.raises(ValueError, match="infeasible") as got:
                min_energy_assign(
                    energy, total_shards, caps, time_cost=time,
                    makespan_cap_s=cap_s, row_of=index,
                )
            assert str(got.value) == str(exc)
        else:
            assert want == min_energy_assign(
                energy, total_shards, caps, time_cost=time,
                makespan_cap_s=cap_s, row_of=index,
            ).tolist()
        # everything on user 0, repaired down to the caps
        piled = np.zeros(n_users, dtype=np.int64)
        piled[0] = total_shards
        assert (
            repair_to_capacities(piled, caps, time, index).tolist()
            == repair_to_capacities(piled, caps, time[index]).tolist()
        )
