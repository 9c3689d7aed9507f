"""The columnar round core: plan → dispatch → close over a fleet.

The paper's Sec. VII round — schedule shards, run them, wait for the
straggler, aggregate — written once over a
:class:`~repro.fleet.store.FleetStore`. :class:`RoundCore` holds the
round parameters every driver shares (validated here, once) and the
three steps of a scheduled round. The drivers own what surrounds them:
:class:`~repro.fleet.runner.FleetRunner` calls the steps back to back,
serve's :class:`~repro.serve.coordinator.TrainingCoordinator` yields to
the event loop between them and re-plans when membership moved. The
core keeps no round state; the virtual clock is the caller's and goes
in and out by value.

A narrated round says what every client did, in the shape the core
holds it: one :class:`~repro.engine.events.ClientsDispatched` and one
:class:`~repro.engine.events.ClientsFinished` column batch per round —
the per-client ``ClientDispatched`` / ``ClientFinished`` rows to any
listener that wants rows, and in every capture.

Once the scheduled set outgrows ``detail_threshold`` the per-client
events (and the cohort-sized ``ScheduleComputed`` payload) give way to
one :class:`~repro.engine.events.CohortAccounted` aggregate per round —
never both, the energy ledger would double-count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..engine.events import (
    ClientDropped,
    ClientsDispatched,
    ClientsFinished,
    CohortAccounted,
    EventBus,
    RoundCompleted,
    ScheduleComputed,
)
from ..obs.prof import PROFILER
from ..sched.base import Assignment, Scheduler, SchedulingProblem
from ..sched.binding import timed_schedule
from .store import FleetStore

__all__ = ["RoundCore"]


@dataclass(frozen=True)
class DispatchedRound:
    """Work handed out, barrier not yet closed: what it cost each
    scheduled fleet row in ``idx`` (batteries have paid ``energy_j``)."""

    round_idx: int
    #: virtual clock at dispatch
    start_s: float
    idx: np.ndarray
    compute_s: np.ndarray
    comm_s: np.ndarray
    total_s: np.ndarray
    energy_j: np.ndarray
    #: what the aggregate event will report; ``None`` on narrated rounds
    eligible_count: Optional[int]


@dataclass(frozen=True)
class ClosedRound:
    """One round's outcome; ``completed``/``dropped`` are fleet rows."""

    completed: np.ndarray
    dropped: np.ndarray
    makespan_s: float
    mean_time_s: float
    #: drained by every dispatched row, uploaded or not
    energy_j: float
    mean_battery_soc: float
    #: barrier plus aggregation: what the round added to the clock
    round_s: float
    #: virtual clock after it
    end_s: float


@dataclass(frozen=True)
class RoundCore:
    """The shared round parameters and the three steps over them."""

    #: the population (mutated in place: batteries drain) and the event
    #: stream the round narrates on
    fleet: FleetStore
    bus: EventBus
    #: the drivers' cap on the scheduled instance; only validated here
    cohort_size: Optional[int]
    #: scheduling granularity, samples per shard
    shard_size: int
    #: battery floor for eligibility (0 disables the gate)
    min_soc: float
    local_epochs: int
    aggregation_s: float
    #: model wire size per direction, for comm-time accounting
    wire_mb: float
    #: largest scheduled set still narrated per client
    detail_threshold: int

    def __post_init__(self) -> None:
        if self.cohort_size is not None and self.cohort_size <= 0:
            raise ValueError("cohort_size must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if self.aggregation_s < 0:
            raise ValueError("aggregation_s must be non-negative")
        if self.detail_threshold < 0:
            raise ValueError("detail_threshold must be non-negative")

    def eligible_indices(self) -> np.ndarray:
        """Alive devices with data whose charge clears ``min_soc``."""
        return np.flatnonzero(self.fleet.eligible_mask(self.min_soc))

    def fill_eligible(self, out: np.ndarray) -> int:
        """The same rows as a mask written into ``out``, and how many."""
        return self.fleet.fill_eligible(out, self.min_soc)

    def plan(
        self,
        scheduler: Scheduler,
        problem: SchedulingProblem,
        round_idx: int,
        clock_s: float,
    ) -> Assignment:
        """One scheduler invocation over ``problem``."""
        assignment = timed_schedule(scheduler, problem)
        counts = assignment.shard_counts
        if int(np.count_nonzero(counts)) > self.detail_threshold:
            return assignment
        with PROFILER.phase("narrate"):
            self.bus.emit(
                ScheduleComputed(
                    round_idx=round_idx,
                    scheduler=scheduler.name,
                    shard_counts=tuple(counts.tolist()),
                    shard_size=self.shard_size,
                    predicted_makespan_s=assignment.predicted_makespan_s,
                    predicted_energy_j=assignment.predicted_energy_j,
                    time_s=clock_s,
                    solve_ms=assignment.solve_ms,
                )
            )
        return assignment

    def dispatch(
        self,
        cohort: np.ndarray,
        assignment: Assignment,
        round_idx: int,
        clock_s: float,
        eligible_count: Optional[int] = None,
    ) -> DispatchedRound:
        """Hand ``assignment``'s shards to the cohort rows it names.

        ``eligible_count`` is for the aggregate event: the driver's
        count from when it drew the cohort, else counted here (after
        the drain) and only when that event will carry it.
        """
        with PROFILER.phase("dispatch"):
            samples = assignment.shard_counts * np.int64(self.shard_size)
            active = np.flatnonzero(samples > 0)
            idx, samples = cohort[active], samples[active]
            # one vectorized compute/comm/drain pass, no events
            compute_s, energy_j = self.fleet.run_compute(
                idx, samples, epochs=self.local_epochs
            )
            comm_s = self.fleet.comm_time_s(idx, self.wire_mb)
        with PROFILER.phase("narrate"):
            if int(idx.size) <= self.detail_threshold:
                eligible_count = None
                self.bus.emit(
                    ClientsDispatched(
                        round_idx=round_idx,
                        client_ids=tuple(idx.tolist()),
                        n_samples=tuple(samples.tolist()),
                        time_s=clock_s,
                    )
                )
            elif eligible_count is None:
                eligible_count = self.fill_eligible(
                    np.empty(self.fleet.n, dtype=bool)
                )
        return DispatchedRound(
            round_idx,
            clock_s,
            idx,
            compute_s,
            comm_s,
            compute_s + comm_s,
            energy_j,
            eligible_count,
        )

    def close(self, work: DispatchedRound) -> ClosedRound:
        """Close the barrier over the rows still alive: devices dead
        since dispatch never upload, the survivors aggregate."""
        round_idx, start_s = work.round_idx, work.start_s
        survived = self.fleet.alive[work.idx]
        if not survived.any():
            raise RuntimeError(
                f"round {round_idx}: every scheduled device died "
                "before upload; nothing to aggregate"
            )
        rows, lost = work.idx[survived], work.idx[~survived]
        total_s = work.total_s[survived]
        makespan_s = float(total_s.max())
        energy_j = float(work.energy_j.sum())
        soc = self.fleet.soc(rows)
        mean_soc = float(soc.mean())
        with PROFILER.phase("narrate"):
            if work.eligible_count is None:
                self.bus.emit(
                    ClientsFinished(
                        round_idx=round_idx,
                        client_ids=tuple(rows.tolist()),
                        compute_s=tuple(work.compute_s[survived].tolist()),
                        comm_s=tuple(work.comm_s[survived].tolist()),
                        total_s=tuple(total_s.tolist()),
                        finish_s=tuple((start_s + total_s).tolist()),
                        energy_j=tuple(work.energy_j[survived].tolist()),
                        battery_soc=tuple(soc.tolist()),
                    )
                )
                # drops stay rows: rare, and only serve's k-of-n path
                # (a device lost between dispatch and close) has any
                for j, total in zip(
                    lost.tolist(), work.total_s[~survived].tolist()
                ):
                    self.bus.emit(
                        ClientDropped(
                            round_idx=round_idx,
                            client_id=j,
                            total_s=total,
                            time_s=start_s + total,
                        )
                    )
            else:
                self.bus.emit(
                    CohortAccounted(
                        round_idx=round_idx,
                        cohort_size=int(rows.size),
                        eligible_count=work.eligible_count,
                        energy_j=energy_j,
                        mean_battery_soc=mean_soc,
                        time_s=start_s + makespan_s,
                    )
                )
        # survivors idle out the barrier slack (dead rows drain nothing)
        with PROFILER.phase("idle"):
            wait_s = makespan_s - total_s + self.aggregation_s
            waiting = np.flatnonzero(wait_s > 0)
            if waiting.size:
                self.fleet.idle(rows[waiting], wait_s[waiting])
        round_s = makespan_s + self.aggregation_s
        closed = ClosedRound(
            completed=rows,
            dropped=lost,
            makespan_s=makespan_s,
            mean_time_s=float(total_s.mean()),
            energy_j=energy_j,
            mean_battery_soc=mean_soc,
            round_s=round_s,
            end_s=start_s + round_s,
        )
        self.bus.emit(
            RoundCompleted(
                round_idx=round_idx,
                makespan_s=makespan_s,
                mean_time_s=closed.mean_time_s,
                participant_count=int(rows.size),
                accuracy=None,
                time_s=closed.end_s,
            )
        )
        return closed
