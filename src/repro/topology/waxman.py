"""Waxman random-graph generator (the paper's default topology).

Waxman (1988): nodes are scattered in the plane and each pair (i, j) is
wired with probability ``β · exp(-d(i,j) / (γ · L_max))`` where ``L_max``
is the maximum inter-node distance.  To hit the paper's average-degree
target exactly we rank pairs by their Waxman score perturbed with Gumbel
noise (equivalent to sampling without replacement proportionally to the
Waxman probability) and keep the top ``target_edges`` pairs, then repair
connectivity.
"""

from __future__ import annotations

import itertools
import math
from typing import Set, Tuple

from repro.network.graph import QuantumNetwork
from repro.topology.base import (
    GeneratedTopology,
    TopologyConfig,
    assemble_network,
    choose_user_indices,
    euclidean,
    repair_connectivity,
    scatter_positions,
    trim_to_edge_target,
)
from repro.utils.rng import RngLike, ensure_rng

#: Classic Waxman parameters; β scales overall density (we re-normalize to
#: the degree target anyway), γ controls how strongly distance suppresses
#: long edges.
DEFAULT_BETA = 0.4
DEFAULT_GAMMA = 0.2


def waxman_network(
    config: TopologyConfig,
    rng: RngLike = None,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
) -> QuantumNetwork:
    """Generate a Waxman-style quantum network per the paper's setup."""
    return waxman_topology(config, rng, beta=beta, gamma=gamma).network


def waxman_topology(
    config: TopologyConfig,
    rng: RngLike = None,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
) -> GeneratedTopology:
    """Like :func:`waxman_network` but returns generation metadata too."""
    generator = ensure_rng(rng)
    positions = scatter_positions(config, generator)
    n = config.n_nodes

    distances = [
        euclidean(a, b) for a, b in itertools.combinations(positions, 2)
    ]
    max_distance = max(distances, default=0.0)
    if max_distance <= 0.0:
        max_distance = 1.0

    # Score every pair by log(Waxman probability) + Gumbel noise; taking
    # the top-k of such scores samples k pairs with probabilities
    # proportional to the Waxman weights (the Gumbel-max trick).  The
    # scores stay scalar: a numpy score may differ in the last ulp and
    # flip a pair at the top-k boundary.
    log_beta = math.log(beta)
    scale = gamma * max_distance
    uniforms = generator.uniform(1e-12, 1.0, size=len(distances)).tolist()
    scores = [
        (log_beta - distance / scale - math.log(-math.log(u)), i, j)
        for (i, j), distance, u in zip(
            itertools.combinations(range(n), 2), distances, uniforms
        )
    ]
    scores.sort(reverse=True)

    target = min(config.target_edges, len(scores))
    edges: Set[Tuple[int, int]] = {(i, j) for _, i, j in scores[:target]}
    edges = repair_connectivity(positions, edges)
    edges = trim_to_edge_target(positions, edges, target, generator)

    user_indices = choose_user_indices(config, generator)
    network = assemble_network(config, positions, edges, user_indices)
    return GeneratedTopology(
        network=network,
        config=config,
        method="waxman",
        positions={node.id: node.position for node in network.nodes},
    )
