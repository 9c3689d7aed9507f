"""Core abstractions of the ``repro.sched`` scheduler subsystem.

The paper's algorithms (Fed-LBAP, Fed-MinAvg), the Sec.-VII baselines
and the related-work additions (OLAR, MinEnergy) all answer the same
question — *how many data shards does each user train this round?* —
but historically lived as loose functions with incompatible signatures.
This module gives them one shape:

* :class:`SchedulingProblem` — the full instance a scheduler may
  consult: per-user time/energy costs (``C[j, k]`` = cost of ``k+1``
  shards, held as distinct rows plus each user's row index), the shard
  budget, capacities, non-IID class sets, P2 weights and an RNG. Every
  field a given algorithm does not use is simply ignored by it.
* :class:`Assignment` — a :class:`~repro.core.schedule.Schedule` plus
  the *predicted* round makespan and energy under the problem's cost
  model, so schedulers are comparable on a common yardstick before any
  simulation runs.
* :class:`Scheduler` — the ABC every algorithm implements
  (``schedule(problem) -> Assignment``); concrete classes self-register
  via :func:`repro.sched.registry.register`.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.schedule import Schedule
from ..engine.events import ScheduleComputed

__all__ = ["SchedulingProblem", "Assignment", "Scheduler"]


def _frozen(values: object, dtype: type) -> np.ndarray:
    """A private read-only copy of ``values``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class SchedulingProblem:
    """One scheduling instance: cost model + budget + constraints.

    The cost model is held once, as **distinct rows plus a row index**:
    user ``j``'s cost of ``k+1`` shards is ``time_rows[row_of[j], k]``
    seconds and ``energy_rows[row_of[j], k]`` Joules. A cohort drawn
    from ``g`` device classes has ``g`` rows however many users it has
    (:func:`repro.sched.costs.fleet_problem`), and every scheduler in
    the registry reads through the index. Passing a dense
    ``time_cost=`` / ``energy_cost=`` matrix instead is the same thing
    with one row per user and the identity index. Either way
    :attr:`time_cost` / :attr:`energy_cost` read as frozen
    ``(n_users, s)`` matrices — gathered on first read, then shared
    with every :meth:`with_capacities` clone — for callers outside the
    solve path that want the whole matrix.

    Parameters
    ----------
    time_cost:
        ``(n_users, s)`` matrix; ``time_cost[j, k]`` is the seconds user
        ``j`` needs for ``k+1`` shards this round (compute plus one
        model push/pull). Rows non-decreasing (Property 1).
    energy_cost:
        Optional ``(n_users, s)`` matrix of Joules, same convention.
        Required by energy-aware schedulers (MinEnergy).
    time_rows, energy_rows, row_of:
        The class form, instead of ``time_cost`` / ``energy_cost``:
        ``(g, s)`` distinct rows and the ``(n_users,)`` integer index
        of each user's row.
    total_shards:
        The D of Eq. (3): shards to allocate in full.
    shard_size:
        Samples per shard.
    capacities:
        Optional per-user shard caps ``C_j`` (storage/battery limits),
        a 1-D integer array with one entry per user.
    user_classes:
        Optional per-user class sets ``U_j`` for non-IID instances;
        defaults to "every user holds every class" (IID reading).
    num_classes:
        K, classes in the test set.
    alpha, beta:
        Eq.-(6) time/accuracy trade-off weights (P2 schedulers only).
    weights:
        Optional per-user processing-power estimates for the
        Proportional baseline (e.g. mean CPU frequency per core).
    makespan_cap_s:
        Optional deadline for energy-minimising schedulers: cells whose
        time exceeds the cap are infeasible.
    rng:
        Generator or integer seed consumed by randomised schedulers;
        an explicit value makes runs reproducible end to end.
    """

    def __init__(
        self,
        time_cost: Optional[np.ndarray] = None,
        *,
        total_shards: int,
        shard_size: int = 1,
        energy_cost: Optional[np.ndarray] = None,
        capacities: Optional[np.ndarray] = None,
        user_classes: Optional[Sequence[Tuple[int, ...]]] = None,
        num_classes: int = 10,
        alpha: float = 0.0,
        beta: float = 0.0,
        weights: Optional[np.ndarray] = None,
        makespan_cap_s: Optional[float] = None,
        rng: Union[np.random.Generator, int, None] = None,
        meta: Optional[Dict[str, object]] = None,
        time_rows: Optional[np.ndarray] = None,
        energy_rows: Optional[np.ndarray] = None,
        row_of: Optional[np.ndarray] = None,
    ) -> None:
        dense = time_cost is not None
        unused = (time_rows, energy_rows, row_of) if dense else (energy_cost,)
        if any(given is not None for given in unused) or not (
            dense or (time_rows is not None and row_of is not None)
        ):
            raise TypeError(
                "pass time_cost (and energy_cost), or time_rows with "
                "row_of (and energy_rows)"
            )
        if dense:
            time_rows, energy_rows = time_cost, energy_cost
        # private copies: schedulers share one problem instance, so the
        # rows are frozen after validation — an adapter mutating its
        # input would silently skew every scheduler run after it
        self.time_rows = _frozen(time_rows, np.float64)
        self.energy_rows = (
            None if energy_rows is None else _frozen(energy_rows, np.float64)
        )
        if self.time_rows.ndim != 2:
            raise ValueError("time_cost must be a 2-D (users x shards) matrix")
        if row_of is None:
            row_of = np.arange(self.time_rows.shape[0])
        elif np.asarray(row_of).dtype.kind not in "iu":
            raise ValueError("row_of must be an integer index")
        self.row_of = _frozen(row_of, np.int64)
        self.total_shards = total_shards
        self.shard_size = shard_size
        self.capacities = capacities
        self.user_classes = user_classes
        self.num_classes = num_classes
        self.alpha = alpha
        self.beta = beta
        self.weights = weights
        self.makespan_cap_s = makespan_cap_s
        self.rng = rng
        self.meta: Dict[str, object] = {} if meta is None else meta
        self.validate()
        # the n x s views, shared by every with_capacities clone; a
        # dense-built problem's rows already are its views
        self._dense: Dict[str, np.ndarray] = {}
        if dense:
            self._dense["time_cost"] = self.time_rows
            if self.energy_rows is not None:
                self._dense["energy_cost"] = self.energy_rows

    # -- shape helpers ----------------------------------------------------
    @property
    def n_users(self) -> int:
        return int(self.row_of.shape[0])

    @property
    def n_slots(self) -> int:
        """Columns of the cost matrices (max shards any user could take)."""
        return int(self.time_rows.shape[1])

    def _dense_view(self, name: str, rows: np.ndarray) -> np.ndarray:
        view = self._dense.get(name)
        if view is None:
            view = rows[self.row_of]
            view.flags.writeable = False
            self._dense[name] = view
        return view

    @property
    def time_cost(self) -> np.ndarray:
        """The frozen ``(n_users, s)`` time matrix, gathered on first
        read. Nothing on the solve path reads it."""
        return self._dense_view("time_cost", self.time_rows)

    @property
    def energy_cost(self) -> Optional[np.ndarray]:
        """The frozen ``(n_users, s)`` energy matrix (None if absent)."""
        if self.energy_rows is None:
            return None
        return self._dense_view("energy_cost", self.energy_rows)

    def effective_capacities(self) -> np.ndarray:
        """Per-user caps clipped to the matrix width (``n_slots``)."""
        caps = np.full(self.n_users, self.n_slots, dtype=np.int64)
        if self.capacities is not None:
            caps = np.minimum(
                caps, np.asarray(self.capacities, dtype=np.int64)
            )
        return caps

    def classes_or_default(self) -> Sequence[Tuple[int, ...]]:
        """Class sets, defaulting to full coverage for every user."""
        if self.user_classes is not None:
            return self.user_classes
        full = tuple(range(self.num_classes))
        return [full] * self.n_users

    def generator(self, fallback_seed: int = 0) -> np.random.Generator:
        """Materialise the problem's RNG (seed, Generator, or default)."""
        if isinstance(self.rng, np.random.Generator):
            return self.rng
        if self.rng is not None:
            return np.random.default_rng(int(self.rng))
        return np.random.default_rng(fallback_seed)

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Reject malformed instances with actionable messages.

        Every check on cost values runs on the distinct rows: each
        user's row is one of them, so it holds for the whole matrix
        exactly when it holds for them.
        """
        if self.row_of.ndim != 1:
            raise ValueError("row_of must be a 1-D index, one entry per user")
        if self.n_users == 0:
            raise ValueError("need at least one user (empty user list)")
        if self.n_slots == 0:
            raise ValueError("cost matrix has zero shard columns")
        if self.total_shards <= 0:
            raise ValueError("total_shards must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.row_of.min() < 0 or self.row_of.max() >= len(self.time_rows):
            raise ValueError("row_of must index the rows of time_rows")
        if not np.isfinite(self.time_rows).all():
            raise ValueError("time_cost contains NaN/inf entries")
        if (self.time_rows < 0).any():
            raise ValueError("time_cost contains negative entries")
        if self.energy_rows is not None:
            if self.energy_rows.shape != self.time_rows.shape:
                raise ValueError("energy_cost shape must match time_cost")
            if not np.isfinite(self.energy_rows).all():
                raise ValueError("energy_cost contains NaN/inf entries")
            if (self.energy_rows < 0).any():
                raise ValueError("energy_cost contains negative entries")
        self._validate_capacities()
        if (
            self.user_classes is not None
            and len(self.user_classes) != self.n_users
        ):
            raise ValueError("one class set per user required")
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=np.float64)
            if weights.shape != (self.n_users,):
                raise ValueError("one weight per user required")
            if not (np.isfinite(weights) & (weights > 0)).all():
                raise ValueError("weights must be finite and positive")

    def _validate_capacities(self) -> None:
        if self.capacities is not None:
            given = np.asarray(self.capacities)
            if given.shape != (self.n_users,) or given.dtype.kind not in "iu":
                raise ValueError(
                    "capacities must be a 1-D integer array with one "
                    f"entry per user: expected shape ({self.n_users},), "
                    f"got {given.dtype} of shape {given.shape}"
                )
        caps = self.effective_capacities()
        if (caps < 0).any():
            raise ValueError("capacities must be non-negative")
        if int(caps.sum()) < self.total_shards:
            raise ValueError(
                "infeasible: total capacity "
                f"{int(caps.sum())} below the requested "
                f"{self.total_shards} shards"
            )

    def with_capacities(
        self, capacities: Optional[np.ndarray]
    ) -> "SchedulingProblem":
        """The same instance under different per-user caps.

        The clone shares the frozen rows, the index and the dense views
        (whichever of the two materialises one first, both see it) with
        this problem: nothing is copied and only the capacity checks
        run again, so a per-round re-plan costs O(n), not O(n x s).
        """
        clone = copy.copy(self)
        clone.capacities = capacities
        clone._validate_capacities()
        return clone

    # -- evaluation -------------------------------------------------------
    def _active_cells(
        self, rows: np.ndarray, shard_counts: np.ndarray
    ) -> np.ndarray:
        """``rows[row_of[j], counts[j] - 1]`` of every user with work,
        in user order."""
        counts = np.asarray(shard_counts, dtype=np.int64)
        active = np.flatnonzero(counts > 0)
        return rows[self.row_of[active], counts[active] - 1]

    def predicted_makespan(self, shard_counts: np.ndarray) -> float:
        """Round makespan implied by the time matrix for an allocation."""
        seconds = self._active_cells(self.time_rows, shard_counts)
        return float(seconds.max()) if seconds.size else 0.0

    def predicted_energy(
        self, shard_counts: np.ndarray
    ) -> Optional[float]:
        """Total Joules implied by the energy matrix (None if absent)."""
        if self.energy_rows is None:
            return None
        joules = self._active_cells(self.energy_rows, shard_counts)
        # cumsum adds strictly left to right, one user after the other
        # (np.sum adds pairwise and rounds differently): recorded
        # predicted_energy_j values depend on that order
        return float(np.cumsum(joules)[-1]) if joules.size else 0.0


@dataclass
class Assignment:
    """A scheduler's answer, annotated with its predicted cost.

    ``schedule`` carries the shard allocation; ``predicted_makespan_s``
    and ``predicted_energy_j`` are evaluated against the *problem's*
    cost matrices so every scheduler is scored on the same model.
    """

    schedule: Schedule
    scheduler: str
    predicted_makespan_s: float
    predicted_energy_j: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def shard_counts(self) -> np.ndarray:
        return self.schedule.shard_counts

    def samples_per_user(self) -> np.ndarray:
        return self.schedule.samples_per_user()

    @property
    def solve_ms(self) -> Optional[float]:
        """Solver runtime (host ms) the planner recorded in ``meta``,
        if any (see :func:`repro.sched.binding.timed_schedule`)."""
        value = self.meta.get("solve_ms")
        if isinstance(value, (int, float)):
            return float(value)
        return None

    def schedule_computed(
        self, round_idx: int, time_s: float
    ) -> ScheduleComputed:
        """The event announcing this allocation for ``round_idx``."""
        return ScheduleComputed(
            round_idx=round_idx,
            scheduler=self.scheduler,
            shard_counts=tuple(self.shard_counts.tolist()),
            shard_size=self.schedule.shard_size,
            predicted_makespan_s=self.predicted_makespan_s,
            predicted_energy_j=self.predicted_energy_j,
            time_s=time_s,
        )

    @classmethod
    def from_schedule(
        cls,
        problem: SchedulingProblem,
        schedule: Schedule,
        scheduler: str,
        **meta: object,
    ) -> "Assignment":
        """Wrap a raw schedule and score it against the problem."""
        return cls(
            schedule=schedule,
            scheduler=scheduler,
            predicted_makespan_s=problem.predicted_makespan(
                schedule.shard_counts
            ),
            predicted_energy_j=problem.predicted_energy(
                schedule.shard_counts
            ),
            meta=dict(meta),
        )


class Scheduler(ABC):
    """A shard-allocation algorithm.

    Subclasses set ``name`` (the registry key fills it in when the
    class is registered) and implement :meth:`schedule`. A scheduler
    must allocate *exactly* ``problem.total_shards`` shards and respect
    ``problem.effective_capacities()``; the shared property tests
    enforce both for every registered implementation.
    """

    #: registry key; assigned by @register
    name: str = "unnamed"

    @abstractmethod
    def schedule(self, problem: SchedulingProblem) -> Assignment:
        """Solve one instance."""

    def _finish(
        self,
        problem: SchedulingProblem,
        schedule: Schedule,
        **meta: object,
    ) -> Assignment:
        """Validate totals/capacities and wrap the schedule."""
        schedule.validate_total(problem.total_shards)
        schedule.validate_capacities(problem.effective_capacities())
        return Assignment.from_schedule(
            problem, schedule, self.name, **meta
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
