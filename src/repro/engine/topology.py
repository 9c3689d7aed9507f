"""Gossip graphs for server-less (D-PSGD) runs.

The sync round and the async driver talk to one parameter server and
need no topology object. The decentralized driver does:
:class:`PeerGraph` is a connected gossip graph with its Metropolis-
Hastings doubly-stochastic mixing matrix, built by
``repro.federated.DecentralizedSimulation`` (which re-exports the graph
generator and the weights).

networkx is imported where a graph is built or checked, not with the
package: only gossip runs need it, and it would hold ~20 k objects and
~18 MiB in every process that imports :mod:`repro`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "make_topology",
    "metropolis_weights",
    "PeerGraph",
]


def make_topology(
    kind: str, n: int, rng: Optional[np.random.Generator] = None
) -> nx.Graph:
    """Build a gossip topology: ``"ring"``, ``"complete"`` or
    ``"random"`` (3-regular when possible, ring fallback)."""
    import networkx as nx

    if n < 2:
        raise ValueError("need at least two nodes")
    if kind == "ring":
        return nx.cycle_graph(n)
    if kind == "complete":
        return nx.complete_graph(n)
    if kind == "random":
        rng = rng or np.random.default_rng(0)
        d = min(3, n - 1)
        if (d * n) % 2 == 1:
            d -= 1
        if d < 1:
            return nx.cycle_graph(n)
        seed = int(rng.integers(0, 2**31 - 1))
        g = nx.random_regular_graph(d, n, seed=seed)
        if not nx.is_connected(g):
            g = nx.cycle_graph(n)
        return g
    raise KeyError(f"unknown topology {kind!r}")


def metropolis_weights(graph: nx.Graph) -> np.ndarray:
    """Doubly-stochastic Metropolis-Hastings mixing matrix.

    ``W[i, j] = 1 / (1 + max(deg_i, deg_j))`` for edges, diagonal takes
    the slack. Guarantees average-consensus convergence on connected
    graphs.
    """
    n = graph.number_of_nodes()
    w = np.zeros((n, n))
    deg = dict(graph.degree())
    for i, j in graph.edges():
        w_ij = 1.0 / (1.0 + max(deg[i], deg[j]))
        w[i, j] = w_ij
        w[j, i] = w_ij
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


class PeerGraph:
    """Server-less topology over a connected gossip graph."""

    def __init__(self, graph: nx.Graph) -> None:
        import networkx as nx

        if not nx.is_connected(graph):
            raise ValueError("gossip graph must be connected")
        self.graph = graph
        self.mixing = metropolis_weights(graph)

    @property
    def n_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def neighbors(self, j: int) -> List[int]:
        return sorted(self.graph.neighbors(j))
