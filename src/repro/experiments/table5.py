"""Table V — model accuracy under non-IID data for every scheduler.

Random class distributions per testbed; each scheduler's allocation is
replayed on the mini dataset (respecting each user's class set) and
trained with FedAvg. Paper shapes: Fed-MinAvg loses essentially nothing
on MNIST and <= 0.02 on CIFAR10 against the best baseline; accuracy
*rises* with more users (unlike IID); Random is the strongest baseline
but is far from time-optimal.
"""

from __future__ import annotations

import dataclasses

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..data.partition import nclass_noniid_classes
from .fig5 import schedule_iid
from .flruns import FLRunConfig, accuracy_of_schedule
from .minavg_runs import best_alpha_schedule
from .runner import ExperimentResult
from .table3 import surrogate_fl
from .testbeds import testbed_names

__all__ = ["Table5Config", "run"]


@dataclass
class Table5Config:
    datasets: Tuple[str, ...] = ("mnist", "cifar10")
    models: Tuple[str, ...] = ("lenet", "vgg6")
    testbeds: Tuple[int, ...] = (1, 2, 3)
    alphas: Tuple[float, ...] = (100.0, 1000.0, 5000.0)
    shard_size: int = 250
    classes_per_user: int = 4
    fl: FLRunConfig = field(default_factory=FLRunConfig)
    #: independent seeds averaged per cell (the paper averages 10 runs)
    repeats: int = 2
    seed: int = 31

    @classmethod
    def paper(cls) -> "Table5Config":
        """Full protocol: the paper's alpha search grid, 100-sample
        shards, 10 averaged runs, 20/50 global epochs."""
        return cls(
            alphas=(100.0, 250.0, 500.0, 1000.0, 2000.0, 3500.0, 5000.0),
            shard_size=100,
            repeats=10,
            fl=FLRunConfig(rounds=20),
        )


def run(config: Optional[Table5Config] = None) -> ExperimentResult:
    """Reproduce Table V: non-IID accuracy per scheduler."""
    cfg = config or Table5Config()
    result = ExperimentResult(
        name="table5",
        description="model accuracy with different schedulers "
        "(non-IID data)",
        columns=[
            "dataset",
            "model",
            "testbed",
            "proportional",
            "random",
            "equal",
            "fed-minavg",
            "minavg_loss_vs_best",
        ],
    )
    for ds in cfg.datasets:
        for model_name in cfg.models:
            fl = surrogate_fl(model_name, cfg.fl)
            for tb in cfg.testbeds:
                names = testbed_names(tb)
                n = len(names)
                rng = np.random.default_rng(cfg.seed + tb)
                classes = nclass_noniid_classes(
                    n, cfg.classes_per_user, 10, rng
                )
                # the baselines ignore class sets: Fig. 5's road
                scheds = {
                    k: schedule_iid(
                        k, tb, ds, model_name, cfg.shard_size, rng
                    )
                    for k in ("proportional", "random", "equal")
                }
                scheds["fed-minavg"] = best_alpha_schedule(
                    tb,
                    classes,
                    ds,
                    model_name,
                    alphas=cfg.alphas,
                    beta=0.0,
                    shard_size=cfg.shard_size,
                )[0]
                cell: Dict[str, float] = {}
                for k, sched in scheds.items():
                    accs = []
                    for rep in range(cfg.repeats):
                        rep_fl = dataclasses.replace(
                            fl, seed=fl.seed + 101 * rep
                        )
                        accs.append(
                            accuracy_of_schedule(
                                f"{ds}_mini",
                                sched.shard_counts,
                                classes,
                                rep_fl,
                            )
                        )
                    cell[k] = float(np.mean(accs))
                best = max(
                    cell["proportional"], cell["random"], cell["equal"]
                )
                result.add_row(
                    dataset=ds,
                    model=model_name,
                    testbed=tb,
                    minavg_loss_vs_best=best - cell["fed-minavg"],
                    **cell,
                )
    result.add_note(
        "paper shape: Fed-MinAvg within ~0.02 of the best baseline; "
        "accuracy climbs with more users under non-IID"
    )
    return result
