"""Redundant multi-channel entanglement trees.

The paper restricts each user pair to a single channel ("at most one
quantum channel between a quantum user pair", Sec. II-C) and flags
richer schemes as extensions.  This module implements the natural one:
spend *leftover* switch capacity on **backup channels** for the tree's
weakest edges.  A tree edge backed by channels with success rates
``P₁ … P_m`` succeeds when any copy does:

    P_edge = 1 − Π (1 − P_i)

so the tree's success becomes ``Π_edges P_edge`` — strictly better than
Eq. (2) whenever any backup is added, at zero extra cost to other edges
(fibers are multi-core; only switch qubits are scarce).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.channel import find_best_channel
from repro.core.ledger import CapacityLedger
from repro.core.problem import Channel, MUERPSolution, channel_usage
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class RedundantTree:
    """An entanglement tree where each edge may hold several channels."""

    groups: Tuple[Tuple[Channel, ...], ...]
    users: FrozenSet[Hashable]
    base: MUERPSolution

    @property
    def log_rate(self) -> float:
        """Log success probability with per-edge redundancy."""
        total = 0.0
        for group in self.groups:
            miss = 1.0
            for channel in group:
                miss *= 1.0 - channel.rate
            edge_success = 1.0 - miss
            if edge_success <= 0.0:
                return -math.inf
            total += math.log(edge_success)
        return total

    @property
    def rate(self) -> float:
        return math.exp(self.log_rate)

    @property
    def n_backups(self) -> int:
        return sum(len(group) - 1 for group in self.groups)

    def switch_usage(self) -> Dict[Hashable, int]:
        return channel_usage(c for group in self.groups for c in group)


def add_redundancy(
    network: QuantumNetwork,
    solution: MUERPSolution,
    max_backups: Optional[int] = None,
) -> RedundantTree:
    """Greedily add backup channels to *solution* within leftover capacity.

    Each step duplicates the tree edge whose backup yields the largest
    gain in total log success (backups may take different paths than the
    originals — they only share endpoints).  Stops when no admissible
    backup improves the rate or *max_backups* is reached.

    Backups spend from an idle ledger with the base tree reserved
    (capped, since a capacity-exempt base tree may overbook a switch).
    """
    if not solution.feasible:
        raise ValueError("cannot add redundancy to an infeasible solution")
    groups: List[List[Channel]] = [[c] for c in solution.channels]
    ledger = CapacityLedger.from_network(network)
    ledger.reserve_capped(solution.switch_usage())

    added = 0
    while max_backups is None or added < max_backups:
        best_gain = 1e-12
        best: Optional[Tuple[int, Channel]] = None
        for index, group in enumerate(groups):
            miss = 1.0
            for channel in group:
                miss *= 1.0 - channel.rate
            if miss <= 0.0:
                continue  # edge already certain
            a, b = group[0].endpoints
            backup = find_best_channel(network, a, b, ledger)
            if backup is None:
                continue
            current = 1.0 - miss
            upgraded = 1.0 - miss * (1.0 - backup.rate)
            gain = math.log(upgraded) - math.log(current)
            if gain > best_gain:
                best_gain = gain
                best = (index, backup)
        if best is None:
            break
        index, backup = best
        ledger.reserve_channel(backup)
        groups[index].append(backup)
        added += 1

    return RedundantTree(
        groups=tuple(tuple(group) for group in groups),
        users=solution.users,
        base=solution,
    )


def simulate_redundant(
    network: QuantumNetwork,
    tree: RedundantTree,
    trials: int = 10_000,
    rng: RngLike = None,
) -> Tuple[float, float]:
    """Monte-Carlo check of the redundant tree's success probability.

    Returns ``(empirical_rate, analytic_rate)``; each trial samples every
    channel's links and swaps independently, an edge succeeds when any
    of its channels does, the tree when every edge does.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    generator = ensure_rng(rng)
    alpha = network.params.alpha
    q = network.params.swap_prob
    ok = np.ones(trials, dtype=bool)
    for group in tree.groups:
        edge_ok = np.zeros(trials, dtype=bool)
        for channel in group:
            lengths = []
            for u, v in zip(channel.path, channel.path[1:]):
                lengths.append(network.fiber_between(u, v).length)
            probs = np.exp(-alpha * np.asarray(lengths))
            channel_ok = (
                generator.uniform(size=(trials, len(lengths))) < probs[None, :]
            ).all(axis=1)
            if channel.n_swaps:
                channel_ok &= (
                    generator.uniform(size=(trials, channel.n_swaps)) < q
                ).all(axis=1)
            edge_ok |= channel_ok
        ok &= edge_ok
    return float(ok.mean()), tree.rate
