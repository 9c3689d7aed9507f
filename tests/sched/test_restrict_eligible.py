"""``restrict_problem`` takes user indices and nothing else.

A negative entry would wrap to the last users and a list of bools would
be read as a mask, so either would make the wrong users eligible
without a word. Both are refused, as are entries past the cohort and
non-integers; the index forms the engine binding and the serve
coordinator pass (lists of ints, integer arrays) keep working.
"""

import numpy as np
import pytest

from repro.sched import SchedulingProblem
from repro.sched.binding import restrict_problem


def problem(n=4, total=8, cap=4):
    k = np.arange(1, total + 1)
    return SchedulingProblem(
        time_cost=np.linspace(0.5, 2.0, n)[:, None] * k[None, :],
        total_shards=total,
        capacities=np.full(n, cap, dtype=np.int64),
    )


@pytest.mark.parametrize(
    "eligible, words",
    [
        ([-1, 0], r"\[-1\] are not in \[0, 4\)"),
        ([0, 4], r"\[4\] are not in \[0, 4\)"),
        ([True, False, True, False], "integer user indices"),
        ([0.0, 2.0], "integer user indices"),
        ([[0, 2]], "integer user indices"),
    ],
    ids=["negative", "past the cohort", "bools", "floats", "2-D"],
)
def test_a_bad_entry_is_refused(eligible, words):
    with pytest.raises(ValueError, match=words):
        restrict_problem(problem(), eligible)


@pytest.mark.parametrize(
    "eligible",
    [[0, 2], (2, 0), np.array([0, 2]), np.array([2, 0], dtype=np.uint8),
     iter([0, 2])],
    ids=["list", "tuple", "int64", "uint8", "iterator"],
)
def test_user_indices_in_any_integer_form(eligible):
    restricted = restrict_problem(problem(), eligible)
    assert restricted.capacities.tolist() == [4, 0, 4, 0]


def test_no_eligible_user_is_still_infeasible():
    with pytest.raises(RuntimeError, match="infeasible round"):
        restrict_problem(problem(), [])
