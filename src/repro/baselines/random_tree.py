"""Random-tree ablation baseline.

Connects users in a uniformly random pairing order: shuffle the users,
then attach each in turn to a uniformly random already-connected user
via the capacity-aware max-rate channel.  This isolates how much of the
proposed algorithms' advantage comes from *rate-greedy pair selection*
(Algorithms 2-4) versus merely using max-rate point-to-point routing.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional

from repro.core.channel import find_best_channel
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng


def solve_random_tree(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    rng: RngLike = None,
) -> MUERPSolution:
    """Random attachment order, greedy per-pair routing.

    Deterministic given *rng*; returns an infeasible solution (rate 0)
    when the drawn attachment cannot be routed.
    """
    user_list = resolve_users(network, users)
    generator = ensure_rng(rng)
    order = list(user_list)
    generator.shuffle(order)

    ledger = CapacityLedger.from_network(network)
    connected: List[Hashable] = [order[0]]
    selected: List[Channel] = []
    for newcomer in order[1:]:
        anchor = connected[int(generator.integers(0, len(connected)))]
        channel = find_best_channel(network, anchor, newcomer, ledger)
        if channel is None:
            return infeasible_solution(user_list, "random_tree")
        ledger.reserve_channel(channel)
        selected.append(channel)
        connected.append(newcomer)

    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="random_tree",
        feasible=True,
    )
