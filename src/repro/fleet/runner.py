"""Fleet-scale round runner over the columnar store.

:class:`FleetRunner` drives scheduler-planned FedAvg-style rounds over
a :class:`~repro.fleet.store.FleetStore` population — eligibility,
cohort sampling, solving, battery drain and idle accounting are all
vectorized array operations, and the scheduling instance is the
per-class cost rows plus the cohort's ``class_id``
(:func:`~repro.sched.costs.fleet_problem`), never a cohort x shards
matrix. A round is still O(n) in the population — the eligibility
scan, one uniform per eligible row for the draw and the bystanders'
drain each pass over every row — and at n = 10⁶ with a 512-device
cohort those passes are nearly all of its host time (perfbench's
``fleet-1m``). None of them allocates per row: the eligibility scan
writes a mask into a buffer the runner owns (as the bystander mask is)
and hands the sampler that mask, never the list of eligible rows; the
draw and the drain stream through fixed block-sized scratch. Each pass
is cut at block boundaries into spans that run on every core the
process may use (:mod:`repro.fleet.store`, ``_run_spans``), with the
same bits as one thread. The runner never calls
:meth:`FleetRunner.eligible_indices` itself, so an instrument wrapping
it sees nothing; the scan's time is the runner's own.

The round itself is :class:`~repro.fleet.round.RoundCore`'s plan →
dispatch → close, called back to back (nothing can die in between, so
every scheduled device completes). What the runner adds is the seeded
cohort draw, the class-form problem, the bystanders' idle drain to the
barrier and a :class:`FleetRoundRecord` per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..engine.events import EventBus
from ..obs.prof import PROFILER
from ..sched.base import Scheduler
from ..sched.costs import fleet_problem
from ..sched.registry import get_scheduler
from .round import RoundCore
from .sampling import CohortSampler
from .store import FleetStore

__all__ = ["FleetRoundRecord", "FleetRunner"]


@dataclass(frozen=True)
class FleetRoundRecord:
    """Bookkeeping for one fleet round: virtual simulation state only,
    so two runs over copies of one fleet give ``==`` records."""

    round_idx: int
    scheduler: str
    eligible_count: int
    cohort_size: int
    #: cohort members actually assigned shards (participants)
    active_count: int
    makespan_s: float
    energy_j: float
    mean_battery_soc: float


class FleetRunner:
    """Scheduler-in-the-loop round driver for a columnar fleet.

    Parameters
    ----------
    fleet:
        The population (mutated in place: batteries drain).
    scheduler:
        Registry name or :class:`~repro.sched.base.Scheduler` planning
        each round's shard allocation over the cohort.
    sampler, cohort_size:
        Optional per-round cohort sampling (both or neither). Without
        them every eligible device joins the instance — fine up to
        ~10³, but solvers are O(cohort²) or worse, so at fleet scale a
        cohort is how rounds stay sub-second.
    total_shards:
        The shard budget; defaults to the data the cohort holds
        (capped so the instance stays well-posed).
    shard_size, min_soc, wire_mb, detail_threshold, ...:
        The round parameters every driver shares, documented on
        :class:`~repro.fleet.round.RoundCore`.
    """

    def __init__(
        self,
        fleet: FleetStore,
        scheduler: Union[str, Scheduler] = "proportional",
        sampler: Optional[CohortSampler] = None,
        cohort_size: Optional[int] = None,
        shard_size: int = 500,
        total_shards: Optional[int] = None,
        min_soc: float = 0.0,
        local_epochs: int = 1,
        aggregation_s: float = 0.0,
        wire_mb: float = 1.0,
        detail_threshold: int = 256,
        with_energy: bool = True,
        bus: Optional[EventBus] = None,
    ) -> None:
        if (sampler is None) != (cohort_size is None):
            raise ValueError(
                "sampler and cohort_size must be given together"
            )
        self.fleet = fleet
        self.scheduler: Scheduler = (
            get_scheduler(scheduler)
            if isinstance(scheduler, str)
            else scheduler
        )
        self.sampler = sampler
        self.total_shards = total_shards
        self.with_energy = with_energy
        self.bus = bus or EventBus()
        self.core = RoundCore(
            fleet,
            self.bus,
            cohort_size=cohort_size,
            shard_size=shard_size,
            min_soc=min_soc,
            local_epochs=local_epochs,
            aggregation_s=aggregation_s,
            wire_mb=wire_mb,
            detail_threshold=detail_threshold,
        )
        #: virtual clock (seconds), advanced by each round's barrier
        self.clock_s = 0.0
        self.round_idx = 0
        self.records: List[FleetRoundRecord] = []
        # each round's eligibility and bystander masks, rewritten in place
        self._eligible = np.empty(fleet.n, dtype=bool)
        self._bystanders = np.empty(fleet.n, dtype=bool)

    # -- round phases -----------------------------------------------------
    def eligible_indices(self) -> np.ndarray:
        """Alive devices with data whose charge clears ``min_soc`` (the
        rows of the mask a round draws from; a round does not list
        them)."""
        return self.core.eligible_indices()

    def _draw_cohort(self, eligible: np.ndarray) -> np.ndarray:
        """The cohort from the round's eligibility mask."""
        if self.sampler is None or self.core.cohort_size is None:
            return np.flatnonzero(eligible)
        data_size = (
            self.fleet.data_size[eligible]
            if self.sampler.uses_data_size
            else None
        )
        return self.sampler.sample(
            eligible, self.core.cohort_size, data_size=data_size
        )

    def run_round(self) -> FleetRoundRecord:
        """Run one barrier round; returns its record (also appended to
        :attr:`records`)."""
        with PROFILER.phase("cohort"):
            eligible_count = self.core.fill_eligible(self._eligible)
            if eligible_count == 0:
                raise RuntimeError(
                    "no eligible devices (all dead, drained, or data-less)"
                )
            cohort = self._draw_cohort(self._eligible)
        round_idx = self.round_idx + 1

        problem = fleet_problem(
            self.fleet,
            cohort=cohort,
            shard_size=self.core.shard_size,
            total_shards=self.total_shards,
            with_energy=self.with_energy,
        )
        assignment = self.core.plan(
            self.scheduler, problem, round_idx, self.clock_s
        )
        dispatched = self.core.dispatch(
            cohort,
            assignment,
            round_idx,
            self.clock_s,
            eligible_count=eligible_count,
        )
        closed = self.core.close(dispatched)
        with PROFILER.phase("idle"):
            self._idle_bystanders(dispatched.idx, closed.round_s)
        self.clock_s = closed.end_s
        self.round_idx = round_idx
        record = FleetRoundRecord(
            round_idx=round_idx,
            scheduler=self.scheduler.name,
            eligible_count=eligible_count,
            cohort_size=int(cohort.size),
            active_count=int(closed.completed.size),
            makespan_s=closed.makespan_s,
            energy_j=closed.energy_j,
            mean_battery_soc=closed.mean_battery_soc,
        )
        self.records.append(record)
        return record

    def run(self, rounds: int) -> List[FleetRoundRecord]:
        """Run ``rounds`` consecutive rounds; returns their records."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        return [self.run_round() for _ in range(rounds)]

    # -- internals --------------------------------------------------------
    def _idle_bystanders(self, idx: np.ndarray, round_s: float) -> None:
        """Everyone alive outside the round drains idle power for all
        of it — the store's mask form of ``idle``, over a mask written
        into the runner's own buffer."""
        bystander = self._bystanders
        np.copyto(bystander, self.fleet.alive)
        bystander[idx] = False
        self.fleet.idle(bystander, round_s)
