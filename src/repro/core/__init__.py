"""The paper's core contribution: data-as-a-knob scheduling.

* :func:`fed_lbap` — Algorithm 1, min-makespan joint partitioning and
  assignment for IID data (P1).
* :func:`fed_minavg` — Algorithm 2, min-average-cost shard allocation
  with the Eq.-(6) accuracy cost for non-IID data (P2).
* Baselines (Equal / Random / Proportional), cost-matrix builders,
  schedule evaluation, and brute-force test oracles.
"""

from .accuracy_cost import AccuracyCostTracker, accuracy_cost
from .adaptive import AdaptiveScheduler
from .baselines import (
    equal_schedule,
    mean_cpu_freq_per_core,
    proportional_schedule,
    random_schedule,
)
from .brute import brute_force_makespan, brute_force_p2, compositions
from .cost import (
    build_cost_matrix,
    comm_costs_for,
    curves_from_profiles,
    enforce_property1,
    oracle_curves,
)
from .lbap import fed_lbap, feasible_at_threshold, solve_lbap_threshold_exact
from .minavg import fed_minavg, fed_minavg_matrix
from .objective import p2_objective
from .privacy import fed_minavg_private
from .schedule import RoundCost, Schedule, evaluate_makespan

__all__ = [
    "AccuracyCostTracker",
    "AdaptiveScheduler",
    "accuracy_cost",
    "equal_schedule",
    "mean_cpu_freq_per_core",
    "proportional_schedule",
    "random_schedule",
    "brute_force_makespan",
    "brute_force_p2",
    "compositions",
    "build_cost_matrix",
    "comm_costs_for",
    "curves_from_profiles",
    "enforce_property1",
    "oracle_curves",
    "fed_lbap",
    "feasible_at_threshold",
    "solve_lbap_threshold_exact",
    "fed_minavg",
    "fed_minavg_matrix",
    "p2_objective",
    "fed_minavg_private",
    "RoundCost",
    "Schedule",
    "evaluate_makespan",
]
