"""Synchronous federated-learning simulation.

Couples the three substrates:

* **learning** — real NumPy SGD on each user's local subset, FedAvg
  aggregation (accuracy numbers are earned, not modelled);
* **time** — each participant's round time comes from the mobile-device
  simulator running the equivalent FLOP workload *from its current
  thermal state* (devices heat up across rounds, exactly like the
  paper's sustained-training measurements), plus link transfer times;
* **data** — per-user subsets from any partitioner or materialised
  schedule.

The round structure matches Sec. VII: every participant performs one
local epoch per round; the server waits for the slowest participant
(synchronous FedAvg), so the round's wall time is the makespan; faster
devices idle (and cool down) until the next round starts.

The round itself is :meth:`repro.engine.RoundEngine.run_sync_round`
(:class:`~repro.engine.aggregation.SyncFedAvg` strategy); this class
configures an engine, binds a :class:`ParameterServer` to it and
preserves the historical API. Subscribe to ``sim.events`` for the typed
event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..data.partition import UserData
from ..data.synthetic import Dataset
from ..device.device import MobileDevice
from ..engine.aggregation import SyncFedAvg
from ..engine.engine import RoundEngine
from ..engine.events import EventBus
from ..engine.telemetry import ConvergenceHistory, RoundRecord
from ..models.network import Sequential
from ..network.link import Link
from .dropout import DropoutPolicy
from .server import ParameterServer

__all__ = ["SimulationConfig", "FederatedSimulation"]


@dataclass
class SimulationConfig:
    """Hyper-parameters of an FL run."""

    batch_size: int = 20
    local_epochs: int = 1
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    eval_every: int = 1
    seed: int = 0
    #: seconds of server-side aggregation latency added between rounds
    aggregation_s: float = 1.0
    #: battery-aware participation: devices below this state of charge
    #: sit rounds out (0.0 = always participate). The paper's premise —
    #: battery-powered devices — makes opt-out below a charge floor the
    #: realistic deployment policy.
    min_soc: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.local_epochs <= 0:
            raise ValueError("batch_size and local_epochs must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.aggregation_s < 0:
            raise ValueError("aggregation_s must be non-negative")
        if not 0.0 <= self.min_soc < 1.0:
            raise ValueError("min_soc must be in [0, 1)")


class FederatedSimulation:
    """One configured FL deployment ready to run rounds.

    Parameters
    ----------
    dataset:
        Global dataset; users hold index subsets of its training split.
    model:
        The global model (mutated in place across rounds).
    users:
        Per-user local data (from any partitioner). Users with empty
        subsets sit out every round.
    devices:
        Optional simulated devices, one per user, for timing. Without
        them rounds report zero time (pure-accuracy experiments like
        Fig. 2 / Fig. 3 don't need the clock). A columnar
        :class:`~repro.fleet.store.FleetStore` population comes in here
        too, as ``store.as_devices()`` (see ``docs/fleet.md``).
    links:
        Optional per-user links for communication time
        (``store.as_links()`` for a fleet store).
    dropout:
        Optional deadline-based straggler-dropout policy (the hard
        dropout of Bonawitz et al. [5]); requires ``devices`` since the
        deadline is defined over simulated round times.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: Sequential,
        users: Sequence[UserData],
        devices: Optional[Sequence[MobileDevice]] = None,
        links: Optional[Sequence[Link]] = None,
        config: Optional[SimulationConfig] = None,
        dropout: Optional[DropoutPolicy] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        cfg = self.config
        self.engine = RoundEngine(
            dataset,
            model,
            users,
            strategy=SyncFedAvg(),
            devices=devices,
            links=links,
            dropout=dropout,
            batch_size=cfg.batch_size,
            local_epochs=cfg.local_epochs,
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
            eval_every=cfg.eval_every,
            aggregation_s=cfg.aggregation_s,
            min_soc=cfg.min_soc,
            seed=cfg.seed,
        )
        self.engine.bind_server(ParameterServer(model))

    # -- engine views ----------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self.engine.dataset

    @property
    def users(self) -> List[UserData]:
        return self.engine.users

    @property
    def devices(self) -> Optional[List[MobileDevice]]:
        return self.engine.devices

    @property
    def links(self) -> Optional[List[Link]]:
        return self.engine.links

    @property
    def dropout(self) -> Optional[DropoutPolicy]:
        return self.engine.dropout

    @property
    def server(self) -> ParameterServer:
        return self.engine.server

    @property
    def history(self) -> ConvergenceHistory:
        return self.engine.history

    @property
    def events(self) -> EventBus:
        """The engine's typed event stream (subscribe for telemetry)."""
        return self.engine.bus

    # -- entry points ----------------------------------------------------
    def run_round(self, train: bool = True) -> RoundRecord:
        """Execute one synchronous round; returns its record.

        ``train=False`` skips the actual SGD and aggregation (used by
        timing-only experiments, e.g. Fig. 5/7 makespan grids).
        """
        return self.engine.run_sync_round(train=train)

    def run(self, n_rounds: int, train: bool = True) -> ConvergenceHistory:
        """Run ``n_rounds`` synchronous rounds and return the history."""
        if n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        for _ in range(n_rounds):
            self.run_round(train=train)
        return self.history

    def final_accuracy(self) -> float:
        """Accuracy of the current global model on the test split."""
        return self.engine.final_accuracy()
