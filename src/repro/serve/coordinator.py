"""Training coordinator: scheduler-planned rounds over live membership.

A serve round is :class:`~repro.fleet.round.RoundCore`'s plan →
dispatch → close run *concurrently with churn*: it is an async task
that returns control to the event loop at a checkpoint after each of
the first two steps (``planned``, ``dispatched``) — heartbeats are
processed, the monitor sweep may kill devices, the simulated driver
injects losses — and the coordinator reacts:

* a scheduled device dead **before dispatch** forces a re-plan: the
  round's :class:`~repro.sched.base.SchedulingProblem` (budget fixed at
  round start — the workload does not shrink because devices died) is
  restricted to the still-live cohort via
  :func:`repro.sched.binding.restrict_problem` and planned again
  (``repro_serve_replans_total``);
* a scheduled device dead **after dispatch** simply never uploads —
  the core closes the barrier k-of-n (Shi '19) over the survivors and
  narrates the loss as a :class:`~repro.engine.events.ClientDropped`.

What is the coordinator's own: the deterministic top-k cohort, the
re-plan loop and its :attr:`~TrainingCoordinator.plan_log`, cancel,
and the commit — every completed round adds exactly one
:class:`~repro.serve.modelreg.ModelVersion` carrying the round's
provenance. Round events ride the *virtual* clock (``clock_s``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine.events import EventBus
from ..fleet.round import RoundCore
from ..obs import catalog
from ..obs.metrics import MetricRegistry
from ..sched.base import Assignment, Scheduler, SchedulingProblem
from ..sched.binding import restrict_problem
from ..sched.costs import fleet_problem
from ..sched.registry import get_scheduler
from .modelreg import ModelRegistry
from .registry import DeviceRegistry

__all__ = ["RoundJob", "PlanRecord", "TrainingCoordinator"]

#: phase names passed to the churn hook, in order
ROUND_PHASES = ("planned", "dispatched")

#: ``RoundJob.status`` values
JOB_STATUSES = (
    "pending",
    "running",
    "completed",
    "cancelled",
    "failed",
)

ChurnHook = Callable[[str, "RoundJob"], None]


@dataclass
class RoundJob:
    """Lifecycle handle for one orchestrated round."""

    round_id: int
    status: str = "pending"
    scheduler: Optional[str] = None
    cohort_size: Optional[int] = None
    replans: int = 0
    error: Optional[str] = None
    model_version: Optional[int] = None
    record: Optional[Dict[str, object]] = None
    cancel_requested: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "round_id": self.round_id,
            "status": self.status,
            "scheduler": self.scheduler,
            "replans": self.replans,
            "error": self.error,
            "model_version": self.model_version,
            "record": self.record,
        }


@dataclass(frozen=True)
class PlanRecord:
    """One scheduler invocation (first plan or re-plan) of a round.

    ``dead_scheduled`` counts scheduled devices that were dead *at solve
    time* — the invariant the end-to-end test pins is that this is
    always zero.
    """

    round_id: int
    attempt: int
    scheduled: Tuple[int, ...]
    dead_scheduled: int


class TrainingCoordinator:
    """Drive scheduler-planned rounds over a live device registry."""

    def __init__(
        self,
        registry: DeviceRegistry,
        models: ModelRegistry,
        scheduler: Union[str, Scheduler] = "proportional",
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricRegistry] = None,
        shard_size: int = 100,
        total_shards: Optional[int] = None,
        cohort_size: Optional[int] = None,
        min_soc: float = 0.0,
        local_epochs: int = 1,
        aggregation_s: float = 0.0,
        wire_mb: float = 1.0,
        detail_threshold: int = 256,
        with_energy: bool = True,
        max_replans: int = 8,
        churn_hook: Optional[ChurnHook] = None,
    ) -> None:
        if max_replans < 0:
            raise ValueError("max_replans must be non-negative")
        self.registry = registry
        self.fleet = registry.fleet
        self.models = models
        self.default_scheduler = (
            scheduler if isinstance(scheduler, str) else scheduler.name
        )
        self._scheduler_obj = (
            scheduler if isinstance(scheduler, Scheduler) else None
        )
        self.bus = bus if bus is not None else registry.bus
        m = metrics if metrics is not None else MetricRegistry()
        self._replans_total = m.counter(catalog.SERVE_REPLANS_TOTAL)
        self._in_flight_gauge = m.gauge(catalog.SERVE_ROUNDS_IN_FLIGHT)
        self.core = RoundCore(
            self.fleet,
            self.bus,
            cohort_size=cohort_size,
            shard_size=shard_size,
            min_soc=min_soc,
            local_epochs=local_epochs,
            aggregation_s=aggregation_s,
            wire_mb=wire_mb,
            detail_threshold=detail_threshold,
        )
        self.total_shards = total_shards
        self.with_energy = with_energy
        self.max_replans = max_replans
        #: test/driver seam: called synchronously at each phase
        #: checkpoint, before the event-loop yield
        self.churn_hook = churn_hook
        #: virtual clock (seconds) — round events only; membership
        #: events are service-clock stamped by the registry
        self.clock_s = 0.0
        self.rounds_in_flight = 0
        #: every scheduler invocation, re-plans included
        self.plan_log: List[PlanRecord] = []

    # -- membership-aware planning ----------------------------------------
    def eligible_indices(self) -> np.ndarray:
        """Live registered devices with data whose charge clears
        ``min_soc`` (the ``alive`` column is registry-owned, so dead
        devices are excluded by construction)."""
        return self.core.eligible_indices()

    def _draw_cohort(self, job: RoundJob) -> np.ndarray:
        eligible = self.eligible_indices()
        if eligible.size == 0:
            raise RuntimeError(
                "no eligible devices: nothing registered, everything "
                "dead, or every battery below the floor"
            )
        size = (
            job.cohort_size
            if job.cohort_size is not None
            else self.core.cohort_size
        )
        if size is None or eligible.size <= size:
            return eligible
        # deterministic data-size top-k: the serve cohort must be a
        # pure function of membership, not of an RNG stream shared
        # with anything else
        order = np.argsort(
            self.fleet.data_size[eligible], kind="stable"
        )[::-1]
        return np.sort(eligible[order[:size]])

    def _resolve_scheduler(self, job: RoundJob) -> Scheduler:
        if job.scheduler is None and self._scheduler_obj is not None:
            return self._scheduler_obj
        return get_scheduler(job.scheduler or self.default_scheduler)

    def _plan(
        self,
        job: RoundJob,
        scheduler: Scheduler,
        problem: SchedulingProblem,
        cohort: np.ndarray,
        attempt: int,
    ) -> Assignment:
        """One plan over the cohort members alive right now, logged."""
        live_pos = np.flatnonzero(self.fleet.alive[cohort])
        instance = (
            problem
            if live_pos.size == cohort.size
            else restrict_problem(problem, live_pos.tolist())
        )
        assignment = self.core.plan(
            scheduler, instance, job.round_id, self.clock_s
        )
        scheduled = cohort[np.flatnonzero(assignment.shard_counts > 0)]
        self.plan_log.append(
            PlanRecord(
                round_id=job.round_id,
                attempt=attempt,
                scheduled=tuple(scheduled.tolist()),
                dead_scheduled=int(
                    (~self.fleet.alive[scheduled]).sum()
                ),
            )
        )
        return assignment

    async def _checkpoint(self, phase: str, job: RoundJob) -> None:
        """Phase boundary: run the churn hook, then yield the loop."""
        if self.churn_hook is not None:
            self.churn_hook(phase, job)
        await asyncio.sleep(0)

    # -- the round ---------------------------------------------------------
    async def run_round(self, job: RoundJob) -> RoundJob:
        """Execute one round job to a terminal status."""
        if job.status != "pending":
            raise RuntimeError(
                f"round {job.round_id} already {job.status}"
            )
        job.status = "running"
        self.rounds_in_flight += 1
        self._in_flight_gauge.set(self.rounds_in_flight)
        try:
            await self._run_round_inner(job)
        except asyncio.CancelledError:
            job.status = "cancelled"
            raise
        except Exception as exc:  # noqa: B902 - job surfaces it
            job.status = "failed"
            job.error = str(exc)
        finally:
            self.rounds_in_flight -= 1
            self._in_flight_gauge.set(self.rounds_in_flight)
        return job

    async def _run_round_inner(self, job: RoundJob) -> None:
        scheduler = self._resolve_scheduler(job)
        job.scheduler = scheduler.name
        cohort = self._draw_cohort(job)
        problem = fleet_problem(
            self.fleet,
            cohort=cohort,
            shard_size=self.core.shard_size,
            total_shards=self.total_shards,
            with_energy=self.with_energy,
        )

        # plan until the adopted schedule names only live devices: a
        # DeviceLost landing at the checkpoint invalidates the plan and
        # re-invokes the scheduler over the survivors (budget fixed)
        attempt = 0
        while True:
            assignment = self._plan(job, scheduler, problem, cohort, attempt)
            await self._checkpoint("planned", job)
            if job.cancel_requested:
                job.status = "cancelled"
                return
            scheduled = cohort[np.flatnonzero(assignment.shard_counts > 0)]
            if bool(self.fleet.alive[scheduled].all()):
                break
            attempt += 1
            if attempt > self.max_replans:
                raise RuntimeError(
                    f"round {job.round_id}: membership still churning "
                    f"after {self.max_replans} re-plans"
                )
            job.replans += 1
            self._replans_total.inc()

        dispatched = self.core.dispatch(
            cohort, assignment, job.round_id, self.clock_s
        )
        await self._checkpoint("dispatched", job)
        if job.cancel_requested:
            job.status = "cancelled"
            return
        closed = self.core.close(dispatched)
        self.clock_s = closed.end_s
        version = self.models.commit(
            round_id=job.round_id,
            scheduler=job.scheduler,
            participants=closed.completed.tolist(),
            dropped=closed.dropped.tolist(),
            replans=job.replans,
            makespan_s=closed.makespan_s,
            energy_j=closed.energy_j,
        )
        job.model_version = version.version
        job.record = {
            "round_id": job.round_id,
            "scheduler": job.scheduler,
            "participant_count": int(closed.completed.size),
            "dropped_count": int(closed.dropped.size),
            "replans": job.replans,
            "makespan_s": closed.makespan_s,
            "mean_time_s": closed.mean_time_s,
            "energy_j": closed.energy_j,
            "model_version": version.version,
        }
        job.status = "completed"
