"""Volchenkov–Blanchard power-law random-graph generator.

Volchenkov & Blanchard (2002) describe an algorithm producing graphs with
power-law degree distributions.  We reproduce its essence: draw a target
degree for every node from a truncated power law ``P(k) ∝ k^{-τ}``
(re-scaled so the mean matches the configured average degree), then
realise the degree sequence with a preferential, distance-agnostic
stub-matching pass.  Connectivity is repaired geometrically afterwards.

Stub matching is *stream-exact*: it draws through
:class:`~repro.utils.rng.WeightedIndex`, one double per pick exactly as
``Generator.choice``.  Both picks' weights change only when an edge
lands, so until then the second pick's index is built once per first
endpoint.  Once every pair of nodes with free stubs is an edge, no
attempt can succeed, so one ``generator.random`` call consumes the two
doubles of each attempt left (up to ``50·Σstubs``) and the loop stops:
the generator ends where the full loop would leave it.
"""

from __future__ import annotations

import itertools
from typing import List, Set, Tuple

import numpy as np

from repro.network.graph import QuantumNetwork
from repro.topology.base import (
    GeneratedTopology,
    TopologyConfig,
    assemble_network,
    choose_user_indices,
    repair_connectivity,
    scatter_positions,
    trim_to_edge_target,
)
from repro.utils.rng import RngLike, WeightedIndex, ensure_rng

DEFAULT_EXPONENT = 2.5


def volchenkov_network(
    config: TopologyConfig,
    rng: RngLike = None,
    exponent: float = DEFAULT_EXPONENT,
) -> QuantumNetwork:
    """Generate a power-law (Volchenkov-style) quantum network."""
    return volchenkov_topology(config, rng, exponent).network


def volchenkov_topology(
    config: TopologyConfig,
    rng: RngLike = None,
    exponent: float = DEFAULT_EXPONENT,
) -> GeneratedTopology:
    """Like :func:`volchenkov_network` with metadata."""
    generator = ensure_rng(rng)
    positions = scatter_positions(config, generator)
    n = config.n_nodes

    degrees = _power_law_degrees(n, config.avg_degree, exponent, generator)

    # Stub matching: nodes with remaining stubs are paired preferentially
    # by remaining-degree weight; rejected pairs (duplicates/self-loops)
    # are retried a bounded number of times.
    edges: Set[Tuple[int, int]] = set()
    stubs = np.array(degrees, dtype=np.int64)
    attempts = 0
    max_attempts = 50 * max(1, int(stubs.sum()))
    picks = None  # WeightedIndex over the current stubs, rebuilt per edge
    while np.count_nonzero(stubs) >= 2 and attempts < max_attempts:
        if picks is None:
            if _saturated(stubs, edges):
                # No attempt left can succeed: consume the two doubles
                # each of them would draw, then stop.
                generator.random(2 * (max_attempts - attempts))
                break
            weights = stubs.astype(float)
            weights /= weights.sum()
            picks = WeightedIndex(weights)
            partners = {}  # first endpoint → WeightedIndex over the rest
        attempts += 1
        i = picks.draw(generator)
        pick_j = partners.get(i)
        if pick_j is None:
            weights_j = picks.p.copy()
            weights_j[i] = 0.0
            weights_j /= weights_j.sum()
            pick_j = partners[i] = WeightedIndex(weights_j)
        j = pick_j.draw(generator)
        edge = (i, j) if i < j else (j, i)
        if edge in edges:
            continue
        edges.add(edge)
        stubs[i] -= 1
        stubs[j] -= 1
        picks = None

    edges = repair_connectivity(positions, edges)
    edges = trim_to_edge_target(
        positions, edges, config.target_edges, generator
    )
    user_indices = choose_user_indices(config, generator)
    network = assemble_network(config, positions, edges, user_indices)
    return GeneratedTopology(
        network=network,
        config=config,
        method="volchenkov",
        positions={node.id: node.position for node in network.nodes},
    )


def _saturated(stubs: np.ndarray, edges: Set[Tuple[int, int]]) -> bool:
    """True when every pair of nodes with free stubs is already an edge."""
    open_nodes = np.flatnonzero(stubs).tolist()
    return all(
        pair in edges for pair in itertools.combinations(open_nodes, 2)
    )


def _power_law_degrees(
    n: int,
    avg_degree: float,
    exponent: float,
    generator: np.random.Generator,
) -> List[int]:
    """Sample a degree sequence ``P(k) ∝ k^{-exponent}`` with given mean.

    Degrees are drawn from ``{1, …, n-1}``, then linearly re-scaled so the
    empirical mean is close to *avg_degree*, and the total stub count is
    made even.
    """
    ks = np.arange(1, max(2, n), dtype=float)
    weights = ks ** (-exponent)
    weights /= weights.sum()
    raw = generator.choice(ks, size=n, p=weights)
    mean = raw.mean()
    if mean > 0:
        scaled = np.maximum(1, np.round(raw * (avg_degree / mean))).astype(int)
    else:
        scaled = np.ones(n, dtype=int)
    scaled = np.minimum(scaled, n - 1)
    degrees = [int(d) for d in scaled]
    if sum(degrees) % 2 == 1:
        # Make total stub count even by bumping the smallest degree.
        index = degrees.index(min(degrees))
        degrees[index] += 1
    return degrees
