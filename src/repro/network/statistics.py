"""Topology statistics for generated and real-world networks.

Used by the analysis layer to characterize the networks behind each
experiment data point — the paper attributes algorithm behaviour to
structural features ("critical edges", density, topology family), and
these metrics make those attributions quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.network.graph import QuantumNetwork


@dataclass(frozen=True)
class TopologyStats:
    """Structural summary of a quantum network."""

    n_users: int
    n_switches: int
    n_fibers: int
    average_degree: float
    max_degree: int
    min_degree: int
    diameter_hops: int
    mean_fiber_km: float
    total_fiber_km: float
    clustering: float
    n_bridges: int
    connected: bool

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"{self.n_users} users / {self.n_switches} switches / "
            f"{self.n_fibers} fibers; degree avg {self.average_degree:.2f} "
            f"(min {self.min_degree}, max {self.max_degree}); "
            f"diameter {self.diameter_hops} hops; mean fiber "
            f"{self.mean_fiber_km:.0f} km; clustering {self.clustering:.3f}; "
            f"{self.n_bridges} bridge fibers; "
            f"{'connected' if self.connected else 'DISCONNECTED'}"
        )


def topology_stats(network: QuantumNetwork) -> TopologyStats:
    """Compute :class:`TopologyStats` for *network*."""
    import networkx as nx

    graph = network.to_networkx()
    degrees = [d for _, d in graph.degree()]
    connected = network.is_connected() and len(graph) > 0
    if connected and len(graph) > 1:
        diameter = nx.diameter(graph)
    else:
        diameter = 0
    n_fibers = network.n_fibers
    mean_length = (
        network.total_fiber_length() / n_fibers if n_fibers else 0.0
    )
    return TopologyStats(
        n_users=len(network.users),
        n_switches=len(network.switches),
        n_fibers=n_fibers,
        average_degree=network.average_degree(),
        max_degree=max(degrees) if degrees else 0,
        min_degree=min(degrees) if degrees else 0,
        diameter_hops=diameter,
        mean_fiber_km=mean_length,
        total_fiber_km=network.total_fiber_length(),
        clustering=nx.average_clustering(graph) if len(graph) > 0 else 0.0,
        n_bridges=sum(1 for _ in nx.bridges(graph)) if len(graph) else 0,
        connected=connected,
    )


def degree_histogram(network: QuantumNetwork) -> Dict[int, int]:
    """Degree → node count."""
    histogram: Dict[int, int] = {}
    for node in network.nodes:
        degree = network.degree(node.id)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def bridge_fibers(network: QuantumNetwork) -> List[Tuple[Hashable, Hashable]]:
    """Fibers whose removal disconnects the graph (the structural part
    of the paper's "critical edges")."""
    import networkx as nx

    graph = network.to_networkx()
    return [tuple(edge) for edge in nx.bridges(graph)]


def user_eccentricity_km(network: QuantumNetwork) -> Dict[Hashable, float]:
    """Per-user worst-case shortest fiber distance (km) to another user.

    A rough indicator of which users will anchor low-rate channels.
    """
    import networkx as nx

    graph = network.to_networkx()
    users = network.user_ids
    result: Dict[Hashable, float] = {}
    lengths = dict(
        nx.all_pairs_dijkstra_path_length(graph, weight="length")
    )
    for user in users:
        reachable = lengths.get(user, {})
        distances = [
            reachable[other] for other in users if other != user and other in reachable
        ]
        result[user] = max(distances) if distances else math.inf
    return result
