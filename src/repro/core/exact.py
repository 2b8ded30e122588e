"""Exact MUERP solver via branch and bound.

:mod:`repro.core.bruteforce` enumerates *every* combination of channels
— fine as a test oracle, hopeless beyond toy sizes.  This module solves
the same problem exactly but prunes:

* **Candidate generation** — all simple channels per user pair (the
  complete set, as in brute force), pre-sorted by rate.
* **Search** — depth-first over user pairs (ordered by their best
  candidate's rate); at each pair either skip it or commit one of its
  channels (only if it merges two components and fits the residual
  qubits).
* **Bounding** — with ``c`` components left we need ``c − 1`` more
  channels; an admissible upper bound adds the ``c − 1`` largest
  best-candidate log-rates among the remaining pairs (capacity and
  tree-ness ignored).  Branches whose bound cannot beat the incumbent
  are cut.

Exactness: the search space is identical to brute force's, only the
order and pruning differ, and the bound never underestimates.  The
equivalence is property-tested against :func:`brute_force_optimal`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.bruteforce import MAX_PATHS_PER_PAIR, enumerate_channels
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import QuantumNetwork
from repro.utils.unionfind import UnionFind

#: Branch and bound stays exact at noticeably larger sizes than brute
#: force; this cap is a safety valve, not a tight limit.
MAX_USERS = 8


def solve_exact(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    max_paths_per_pair: int = MAX_PATHS_PER_PAIR,
) -> MUERPSolution:
    """Provably optimal MUERP solution by branch and bound.

    Args:
        network: The quantum network (≤ :data:`MAX_USERS` users).
        users: Users to entangle (default: all network users).
        max_paths_per_pair: Enumeration guard forwarded to
            :func:`~repro.core.bruteforce.enumerate_channels`.

    Returns:
        The optimal capacity-feasible :class:`MUERPSolution` (method
        ``"exact"``), or an infeasible one when no tree fits.
    """
    user_list = resolve_users(network, users)
    if len(user_list) > MAX_USERS:
        raise ValueError(
            f"exact solver supports at most {MAX_USERS} users, "
            f"got {len(user_list)}"
        )

    pairs: List[Tuple[Hashable, Hashable]] = list(
        itertools.combinations(user_list, 2)
    )
    candidates: Dict[Tuple[Hashable, Hashable], List[Channel]] = {}
    for pair in pairs:
        found = enumerate_channels(
            network, pair[0], pair[1], max_paths=max_paths_per_pair
        )
        found.sort(key=lambda c: -c.log_rate)
        if found:
            candidates[pair] = found
    # Pairs ordered by their best candidate, best first: good incumbents
    # early, effective pruning later.
    ordered = sorted(
        candidates, key=lambda p: -candidates[p][0].log_rate
    )
    best_of_pair = [candidates[p][0].log_rate for p in ordered]

    incumbent_channels: Optional[Tuple[Channel, ...]] = None
    incumbent_value = -math.inf

    def bound(index: int, components: int) -> float:
        """Upper bound on the remaining channels' total log rate."""
        needed = components - 1
        if needed == 0:
            return 0.0
        remaining = best_of_pair[index:]
        if len(remaining) < needed:
            return -math.inf
        # remaining is already descending (ordered by best rate).
        return sum(remaining[:needed])

    state_unions = UnionFind(user_list)
    ledger = CapacityLedger.from_network(network)
    chosen: List[Channel] = []

    def dfs(index: int, value: float, components: int, unions: UnionFind):
        nonlocal incumbent_channels, incumbent_value
        if components == 1:
            if value > incumbent_value:
                incumbent_value = value
                incumbent_channels = tuple(chosen)
            return
        if index >= len(ordered):
            return
        if value + bound(index, components) <= incumbent_value:
            return

        pair = ordered[index]
        a, b = pair
        if not unions.connected(a, b):
            for channel in candidates[pair]:
                if value + channel.log_rate + bound(
                    index + 1, components - 1
                ) <= incumbent_value:
                    break  # candidates are sorted: the rest are worse
                if not ledger.can_host(channel):
                    continue
                ledger.reserve_channel(channel)
                chosen.append(channel)
                # Union-find has no undo: clone for the branch.
                branched = UnionFind(user_list)
                for selected in chosen:
                    branched.union(*selected.endpoints)
                dfs(index + 1, value + channel.log_rate, components - 1, branched)
                chosen.pop()
                ledger.release_channel(channel)
        # Branch: skip this pair entirely.
        dfs(index + 1, value, components, unions)

    dfs(0, 0.0, len(user_list), state_unions)

    if incumbent_channels is None:
        return infeasible_solution(user_list, "exact")
    return MUERPSolution(
        channels=incumbent_channels,
        users=frozenset(user_list),
        method="exact",
        feasible=True,
    )
