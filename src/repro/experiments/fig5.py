"""Fig. 5 — computation time per global update with IID data.

For every (testbed, dataset, model) combination, schedule the full
training set with Fed-LBAP and the three baselines, then measure the
realized synchronous-round makespan on the simulated devices. The
paper's headline: Fed-LBAP achieves 5-10x average speedups (up to two
orders of magnitude on Testbed 2, where the Nexus 6P straggles) and is
the only scheme whose time *decreases* as more devices join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..models.zoo import build_model
from ..network.link import make_link
from ..sched import get_scheduler, testbed_problem
from ..sched.costs import DATASET_SHAPES
from .realized import realized_makespan
from .runner import ExperimentResult
from .testbeds import testbed_names

__all__ = ["Fig5Config", "run", "schedule_iid"]


@dataclass
class Fig5Config:
    testbeds: Tuple[int, ...] = (1, 2, 3)
    datasets: Tuple[str, ...] = ("mnist", "cifar10")
    models: Tuple[str, ...] = ("lenet", "vgg6")
    shard_size: int = 500
    link: str = "wifi"
    #: random-baseline repetitions averaged per cell
    random_repeats: int = 3
    seed: int = 0

    @classmethod
    def paper(cls) -> "Fig5Config":
        """Full protocol: the paper's 100-sample shard granularity and
        10 averaged runs per cell (the default differs only in shard
        size and repeat count)."""
        return cls(shard_size=100, random_repeats=10)


def schedule_iid(
    scheduler: str,
    testbed: int,
    dataset: str,
    model_name: str,
    shard_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Schedule:
    """One scheduler's allocation of a full training set on a testbed.

    ``scheduler`` is a registry name, or the paper's column label for
    it (``fed-lbap``). Communication is uniform and treated as a
    constant, as in the paper's main comparison; ``rng`` feeds the
    Random baseline (seed 0 when omitted).
    """
    solver = get_scheduler(scheduler.replace("-", "_"))
    problem = testbed_problem(
        testbed,
        dataset,
        model_name,
        shard_size,
        with_energy=False,
        seed=0 if rng is None else rng,
    )
    return solver.schedule(problem).schedule


def run(config: Optional[Fig5Config] = None) -> ExperimentResult:
    """Reproduce Fig. 5: the full makespan grid plus speedup columns."""
    cfg = config or Fig5Config()
    result = ExperimentResult(
        name="fig5",
        description="computation time per global update, IID data "
        "(realized makespan, seconds)",
        columns=[
            "dataset",
            "model",
            "testbed",
            "proportional",
            "random",
            "equal",
            "fed-lbap",
            "speedup",
        ],
    )
    link = make_link(cfg.link)
    for ds in cfg.datasets:
        shape = DATASET_SHAPES[ds]
        for model_name in cfg.models:
            model = build_model(model_name, input_shape=shape)
            for tb in cfg.testbeds:
                names = testbed_names(tb)
                cell: Dict[str, float] = {}
                for scheduler in (
                    "proportional",
                    "random",
                    "equal",
                    "fed-lbap",
                ):
                    if scheduler == "random":
                        vals = []
                        for r in range(cfg.random_repeats):
                            rng = np.random.default_rng(
                                cfg.seed + 7919 * r
                            )
                            sched = schedule_iid(
                                scheduler, tb, ds, model_name,
                                cfg.shard_size, rng,
                            )
                            vals.append(
                                realized_makespan(
                                    sched.samples_per_user(),
                                    names,
                                    model,
                                    link=link,
                                )
                            )
                        cell[scheduler] = float(np.mean(vals))
                    else:
                        sched = schedule_iid(
                            scheduler, tb, ds, model_name, cfg.shard_size
                        )
                        cell[scheduler] = realized_makespan(
                            sched.samples_per_user(), names, model, link=link
                        )
                best_baseline = min(
                    cell["proportional"], cell["random"], cell["equal"]
                )
                result.add_row(
                    dataset=ds,
                    model=model_name,
                    testbed=tb,
                    speedup=best_baseline / cell["fed-lbap"],
                    **cell,
                )
    result.add_note(
        "paper shape: Fed-LBAP 5-10x faster on average; largest gain on "
        "testbed 2 (Nexus6P stragglers); baselines do not scale with "
        "more users, Fed-LBAP does"
    )
    return result
