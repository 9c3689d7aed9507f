"""``repro.sched`` — the pluggable scheduler subsystem.

The paper's contribution *is* scheduling, so schedulers are first-class
here the way aggregation strategies and topologies are in
:mod:`repro.engine`:

* :class:`Scheduler` ABC + :class:`SchedulingProblem` /
  :class:`Assignment` (``base``) — one interface for "how many shards
  does each user train";
* a decorator registry (``registry``) — ``@register("olar")``,
  ``get_scheduler``, ``available_schedulers``;
* adapters (``adapters``) — the paper's Fed-LBAP / Fed-MinAvg and the
  Equal / Random / Proportional baselines, bit-identical to the loose
  functions in :mod:`repro.core` they wrap;
* two algorithms from related work: :class:`OLARScheduler`
  (Pilla 2020, provably min-makespan for monotone costs) and
  :class:`MinEnergyScheduler` (Pilla 2022, exact (MC)²MKP
  minimal-energy DP with an optional makespan cap);
* cost-model builders (``costs``) — time *and* energy matrices from
  the calibrated device simulator;
* the comparison harness (``bench``) and the engine glue
  (``binding`` + the ``schedule_computed`` event).

Registered names: ``equal``, ``fed_lbap``, ``fed_minavg``,
``min_energy``, ``olar``, ``proportional``, ``random``.
"""

from . import adapters, minenergy, olar  # register built-in schedulers
from .adapters import (
    EqualScheduler,
    FedLBAPScheduler,
    FedMinAvgScheduler,
    ProportionalScheduler,
    RandomScheduler,
)
from .base import Assignment, Scheduler, SchedulingProblem
from .bench import CompareRow, compare, format_table, sweep
from .binding import EngineSchedulerBinding, problem_from_engine
from .costs import (
    DATASET_TOTALS,
    cached_energy_curves,
    cached_time_curves,
    testbed_problem,
)
from .minenergy import MinEnergyScheduler, min_energy_assign
from .olar import OLARScheduler, olar_assign
from .registry import (
    available_schedulers,
    get_scheduler,
    is_registered,
    register,
    scheduler_class,
)

__all__ = [
    "Assignment",
    "Scheduler",
    "SchedulingProblem",
    "register",
    "get_scheduler",
    "scheduler_class",
    "available_schedulers",
    "is_registered",
    "EqualScheduler",
    "RandomScheduler",
    "ProportionalScheduler",
    "FedLBAPScheduler",
    "FedMinAvgScheduler",
    "OLARScheduler",
    "MinEnergyScheduler",
    "olar_assign",
    "min_energy_assign",
    "testbed_problem",
    "cached_time_curves",
    "cached_energy_curves",
    "DATASET_TOTALS",
    "compare",
    "sweep",
    "format_table",
    "CompareRow",
    "EngineSchedulerBinding",
    "problem_from_engine",
]
