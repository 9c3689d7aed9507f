"""Decentralized (server-less) federated learning over a gossip graph.

Sec. IV-A notes the framework "is amenable to decentralized topologies
without a parameter server [8]" (Lian et al., D-PSGD). This module
implements that variant: users hold their own model replicas, train
locally, and average with their graph neighbours each round using a
doubly-stochastic Metropolis-Hastings mixing matrix. The same
data-size schedules (Fed-LBAP / Fed-MinAvg allocations) plug in
unchanged — scheduling and topology are orthogonal, which is precisely
the amenability claim.

This class *is* the gossip driver: it owns the per-node ``replicas``
and the round (local SGD from each node's own replica, then one mixing
step with :class:`~repro.engine.aggregation.GossipAverage` over a
:class:`~repro.engine.topology.PeerGraph`). The shared
:class:`repro.engine.RoundEngine` supplies data, local SGD and the event
bus through its client step (``train_client``, ``emit_dispatched``,
``emit_finished``). A peer graph has no simulated devices, so a gossip
round takes no virtual time. The graph generators and Metropolis
weights live in :mod:`repro.engine.topology` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..data.partition import UserData
from ..data.synthetic import Dataset
from ..engine.aggregation import GossipAverage
from ..engine.engine import RoundEngine
from ..engine.events import EventBus, ModelAggregated, RoundCompleted
from ..engine.execution import evaluate_accuracy
from ..engine.topology import PeerGraph, make_topology, metropolis_weights
from ..models.network import Sequential

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "make_topology",
    "metropolis_weights",
    "DecentralizedConfig",
    "DecentralizedSimulation",
]


@dataclass
class DecentralizedConfig:
    """Hyper-parameters of a decentralized run."""

    batch_size: int = 20
    local_epochs: int = 1
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0


class DecentralizedSimulation:
    """Server-less FL: local training + neighbour gossip averaging.

    Only users holding data train; users with empty subsets still relay
    (gossip) so the graph stays connected — they act as pure mixers.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: Sequential,
        users: Sequence[UserData],
        graph: nx.Graph,
        config: Optional[DecentralizedConfig] = None,
    ) -> None:
        if graph.number_of_nodes() != len(users):
            raise ValueError("graph must have one node per user")
        topology = PeerGraph(graph)
        if not any(u.size > 0 for u in users):
            raise ValueError("no user holds any data")
        self.config = config or DecentralizedConfig()
        cfg = self.config
        self.graph = graph
        self.mixing = topology.mixing
        self.engine = RoundEngine(
            dataset,
            model,
            users,
            batch_size=cfg.batch_size,
            local_epochs=cfg.local_epochs,
            lr=cfg.lr,
            momentum=cfg.momentum,
            seed=cfg.seed,
        )
        self.dataset = dataset
        self.users = self.engine.users
        self._gossip = GossipAverage(topology.mixing)
        self._scratch = model.clone()
        #: one weight-vector row per node, all cloned from the seed model
        self.replicas = np.tile(model.get_weights(), (len(self.users), 1))
        self.round_idx = 0

    @property
    def events(self) -> EventBus:
        """The engine's typed event stream (subscribe for telemetry)."""
        return self.engine.bus

    # -- entry points ----------------------------------------------------
    def run_round(self) -> None:
        """One decentralized round: local SGD then one gossip step."""
        engine = self.engine
        round_idx = self.round_idx + 1
        trained = [j for j, u in enumerate(self.users) if u.size > 0]
        for j in trained:
            engine.emit_dispatched(round_idx, j, self.users[j].size)
            result = engine.train_client(
                j, self.replicas[j], epochs=self.config.local_epochs
            )
            self.replicas[j] = result.weights
            engine.emit_finished(round_idx, j, 0.0, 0.0, engine.clock_s, None)
        # Gossip: every replica mixes with its neighbours.
        self.replicas = self._gossip.mix(self.replicas)
        self.round_idx = round_idx
        engine.bus.emit(
            ModelAggregated(
                round_idx=round_idx,
                participants=tuple(trained),
                strategy=self._gossip.name,
                version=round_idx,
                time_s=engine.clock_s,
            )
        )
        engine.bus.emit(
            RoundCompleted(
                round_idx=round_idx,
                makespan_s=0.0,
                mean_time_s=0.0,
                participant_count=len(trained),
                accuracy=None,
                time_s=engine.clock_s,
            )
        )

    def run(self, n_rounds: int) -> None:
        if n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        for _ in range(n_rounds):
            self.run_round()

    def consensus_distance(self) -> float:
        """Mean L2 distance of replicas from their average — 0 at full
        consensus."""
        mean = self.replicas.mean(axis=0)
        return float(np.linalg.norm(self.replicas - mean, axis=1).mean())

    def node_accuracy(self, j: int) -> float:
        """Test accuracy of one node's replica."""
        self._scratch.set_weights(self.replicas[j])
        return evaluate_accuracy(
            self._scratch, self.dataset.x_test, self.dataset.y_test
        )

    def mean_accuracy(self) -> float:
        """Average test accuracy over all node replicas."""
        return float(
            np.mean([self.node_accuracy(j) for j in range(len(self.users))])
        )
