"""Gossip-graph object tests (graph generators are covered in
tests/federated/test_decentralized.py via the re-exports)."""

import numpy as np
import pytest

from repro.engine.topology import (
    PeerGraph,
    make_topology,
    metropolis_weights,
)


class TestPeerGraph:
    def test_mixing_matches_metropolis(self):
        g = make_topology("ring", 5)
        peer = PeerGraph(g)
        np.testing.assert_allclose(peer.mixing, metropolis_weights(g))
        assert peer.n_nodes == 5

    def test_neighbors_sorted(self):
        g = make_topology("ring", 4)
        assert PeerGraph(g).neighbors(0) == [1, 3]

    def test_disconnected_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(3))
        with pytest.raises(ValueError):
            PeerGraph(g)

    def test_decentralized_reexports_engine_topology(self):
        from repro.engine import topology as engine_topology
        from repro.federated import decentralized

        assert decentralized.make_topology is engine_topology.make_topology
        assert (
            decentralized.metropolis_weights
            is engine_topology.metropolis_weights
        )
