"""Experiment harness: one module per paper table/figure.

Each module exposes a ``Config`` dataclass and ``run(config) ->
ExperimentResult``. Defaults are sized for minutes-scale laptop runs;
the benchmarks under ``benchmarks/`` invoke these and print the
paper-style rows.

Every table that schedules (Fig. 5/6/7, Tables III/IV/V) does so the
way the rest of the repo does: :func:`repro.sched.testbed_problem`
builds the instance from the one profile cache and a scheduler is a
registry name (``fig5.schedule_iid``, ``minavg_runs.schedule_minavg``).
No module here imports a scheduling algorithm from :mod:`repro.core`.

========  ==========================================================
module    reproduces
========  ==========================================================
fig1      per-batch training time + freq/temp traces (Fig. 1)
table2    per-epoch time with comm overhead (Table II)
fig2      IID imbalance vs accuracy (Fig. 2)
fig3      non-IID severity and outlier handling (Fig. 3)
fig4      two-step profiling regression (Fig. 4)
fig5      IID makespan grid, Fed-LBAP vs baselines (Fig. 5)
table3    IID accuracy grid (Table III)
fig6      alpha/beta sweeps on S(I)-S(III) (Fig. 6)
table4    Fed-MinAvg schedules for S(I)-S(III) (Table IV)
fig7      non-IID makespan grid, Fed-MinAvg vs baselines (Fig. 7)
table5    non-IID accuracy grid (Table V)
========  ==========================================================
"""

from . import (
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    table2,
    table3,
    table4,
    table5,
)
from .runner import ExperimentResult, format_table
from .scenarios import SCENARIOS, scenario_classes, scenario_testbed
from .testbeds import TESTBEDS, cached_time_curves, make_testbed, testbed_names

__all__ = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "table3",
    "table4",
    "table5",
    "ExperimentResult",
    "format_table",
    "SCENARIOS",
    "scenario_classes",
    "scenario_testbed",
    "TESTBEDS",
    "cached_time_curves",
    "make_testbed",
    "testbed_names",
]
