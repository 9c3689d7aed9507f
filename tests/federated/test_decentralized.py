"""Decentralized (gossip) FL tests."""

import networkx as nx
import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.federated.decentralized import (
    DecentralizedConfig,
    DecentralizedSimulation,
    make_topology,
    metropolis_weights,
)
from repro.models import logistic


class TestTopologies:
    def test_ring(self):
        g = make_topology("ring", 6)
        assert g.number_of_nodes() == 6
        assert all(d == 2 for _, d in g.degree())

    def test_complete(self):
        g = make_topology("complete", 5)
        assert g.number_of_edges() == 10

    def test_random_connected(self):
        for seed in range(5):
            g = make_topology(
                "random", 8, np.random.default_rng(seed)
            )
            assert nx.is_connected(g)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_topology("torus", 4)
        with pytest.raises(ValueError):
            make_topology("ring", 1)


class TestMetropolisWeights:
    @pytest.mark.parametrize("kind,n", [("ring", 5), ("complete", 4), ("random", 6)])
    def test_doubly_stochastic(self, kind, n):
        g = make_topology(kind, n, np.random.default_rng(0))
        w = metropolis_weights(g)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert (w >= -1e-12).all()
        np.testing.assert_allclose(w, w.T)

    def test_consensus_convergence(self):
        """Repeated mixing drives arbitrary vectors to their average."""
        g = make_topology("ring", 6)
        w = metropolis_weights(g)
        x = np.arange(6.0)
        for _ in range(300):
            x = w @ x
        np.testing.assert_allclose(x, 2.5, atol=1e-6)


class TestDecentralizedSimulation:
    def make_sim(self, dataset, n=4, kind="ring", **cfg_kw):
        rng = np.random.default_rng(0)
        users = iid_partition(dataset, n, rng)
        graph = make_topology(kind, n, rng)
        model = logistic(input_shape=dataset.input_shape, seed=1)
        return DecentralizedSimulation(
            dataset, model, users, graph,
            config=DecentralizedConfig(lr=0.05, **cfg_kw),
        )

    def test_learns_without_server(self, tiny_dataset):
        sim = self.make_sim(tiny_dataset)
        sim.run(8)
        assert sim.mean_accuracy() > 0.5

    def test_gossip_reduces_consensus_distance(self, tiny_dataset):
        sim = self.make_sim(tiny_dataset)
        sim.run_round()
        d_after_train = sim.consensus_distance()
        # pure mixing rounds (no training) shrink disagreement
        for _ in range(10):
            sim.replicas = sim.mixing @ sim.replicas
        assert sim.consensus_distance() < d_after_train

    def test_complete_graph_tighter_consensus_than_ring(self, tiny_dataset):
        ring = self.make_sim(tiny_dataset, kind="ring")
        complete = self.make_sim(tiny_dataset, kind="complete")
        ring.run(5)
        complete.run(5)
        assert complete.consensus_distance() <= ring.consensus_distance()

    def test_empty_nodes_relay(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 3, rng)
        users[1].indices = np.zeros(0, dtype=np.int64)  # pure relay
        graph = make_topology("ring", 3)
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        sim = DecentralizedSimulation(tiny_dataset, model, users, graph)
        sim.run(4)
        assert sim.node_accuracy(1) > 0.3  # relay inherits learning

    def test_validation(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = iid_partition(tiny_dataset, 4, rng)
        model = logistic(input_shape=tiny_dataset.input_shape)
        with pytest.raises(ValueError):
            DecentralizedSimulation(
                tiny_dataset, model, users, make_topology("ring", 5)
            )
        disconnected = nx.Graph()
        disconnected.add_nodes_from(range(4))
        with pytest.raises(ValueError):
            DecentralizedSimulation(
                tiny_dataset, model, users, disconnected
            )
        sim = self.make_sim(tiny_dataset)
        with pytest.raises(ValueError):
            sim.run(0)

    @pytest.mark.parametrize(
        "cfg_kw,message",
        [
            ({"local_epochs": 0}, "batch_size and local_epochs"),
            ({"batch_size": 0}, "batch_size and local_epochs"),
            ({"lr": 0.0}, "lr must be positive"),
            ({"lr": -1.0}, "lr must be positive"),
        ],
    )
    def test_bad_hyperparameters_fail_at_construction(
        self, tiny_dataset, cfg_kw, message
    ):
        """What SimulationConfig rejects, the gossip simulation rejects
        too — not in round 1, and not by narrating rounds that train
        nothing."""
        users = iid_partition(tiny_dataset, 3, np.random.default_rng(0))
        model = logistic(input_shape=tiny_dataset.input_shape, seed=1)
        with pytest.raises(ValueError, match=message):
            DecentralizedSimulation(
                tiny_dataset, model, users, make_topology("ring", 3),
                config=DecentralizedConfig(**cfg_kw),
            )
