"""Algorithm 2 — optimal entanglement tree under sufficient capacity.

When every switch has ``Q_r ≥ 2|U|`` qubits it can host the channels of
*all* user pairs simultaneously, so capacity never binds (Theorem 3's
sufficient condition).  The algorithm is then a Kruskal-style greedy:

1. compute the maximum-rate channel for every user pair (Algorithm 1,
   one single-source run per user);
2. scan the channels in descending rate order, adding a channel whenever
   it merges two distinct user unions (union-find), until the users form
   one spanning entanglement tree.

Theorem 3 proves this output optimal under the condition; the proof is
the classic cut-property argument transplanted to log-rate weights.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional

from repro.core.channel import ranked_pair_channels
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    channel_sort_key,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import QuantumNetwork
from repro.utils.unionfind import UnionFind


def sufficient_capacity(network: QuantumNetwork, n_users: int) -> bool:
    """Check Theorem 3's sufficient condition ``Q_r ≥ 2|U|`` ∀r ∈ R."""
    return all(s.qubits >= 2 * n_users for s in network.switches)


def solve_optimal(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
) -> MUERPSolution:
    """Algorithm 2.  Optimal when ``Q_r ≥ 2|U|`` for every switch.

    Algorithm 2 assumes abundant capacity and does not track qubit
    consumption (the paper runs it with ``Q = 2|U|`` switches in
    Fig. 8a): every pairwise search runs on one idle ledger, so a
    switch relays when its full budget holds 2 qubits, and the tree
    spends nothing from it.

    The scan builds a pair's channel only when the pair's rank group
    comes up and its users are not yet joined
    (:func:`~repro.core.channel.ranked_pair_channels`); the order, and
    so the tree, is the full sort's by ``channel_sort_key``.

    Args:
        network: The quantum network.
        users: Users to entangle (default: all users in the network).

    Returns:
        The spanning :class:`MUERPSolution`; infeasible (rate 0) when the
        fiber graph cannot connect the users at all.
    """
    user_list = resolve_users(network, users)
    idle = CapacityLedger.from_network(network)
    unions = UnionFind(user_list)
    candidates = ranked_pair_channels(
        network, user_list, idle, skip=unions.connected
    )
    selected: List[Channel] = []
    for channel in candidates:
        a, b = channel.endpoints
        if unions.union(a, b):
            selected.append(channel)
            if unions.n_components == 1:
                break
    if unions.n_components != 1:
        return infeasible_solution(user_list, "optimal")
    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="optimal",
        feasible=True,
    )
