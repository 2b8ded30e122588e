"""Local-search post-optimization of entanglement trees.

Algorithms 3 and 4 are constructive greedies; their output can often be
improved by local moves that the construction order hid.  This module
implements a hill climber over two moves, each of which preserves
feasibility by construction:

* **Re-route** — remove one channel, return its qubits to the residual
  pool, and route the same user pair again with Algorithm 1; keep the
  result if strictly better (the freed qubits may enable a better path
  than was available mid-construction).
* **Reconnect** — remove one channel, which splits the user tree into
  two components, then reconnect the components with the best
  capacity-aware channel over *any* cross-component user pair (not
  necessarily the original endpoints).

The climber applies the best improving move until a local optimum, with
an iteration cap.  It never degrades a solution, so
``improve(solve_prim(...))`` is a strictly-no-worse heuristic — measured
against the plain heuristics in ``benchmarks/test_localsearch.py``.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.core.conflict_free import reconnect
from repro.core.ledger import CapacityLedger
from repro.core.problem import Channel, MUERPSolution, channel_usage
from repro.network.graph import QuantumNetwork
from repro.utils.unionfind import UnionFind


def improve_solution(
    network: QuantumNetwork,
    solution: MUERPSolution,
    max_rounds: int = 50,
    tolerance: float = 1e-12,
) -> MUERPSolution:
    """Hill-climb *solution* with re-route and reconnect moves.

    Returns a solution with ``log_rate >= solution.log_rate`` (returns
    the input object unchanged when it is infeasible or already locally
    optimal).  The result's method name gains a ``"+ls"`` suffix.
    """
    if not solution.feasible or not solution.channels:
        return solution

    channels: List[Channel] = list(solution.channels)
    users = sorted(solution.users, key=repr)
    improved_any = False

    for _ in range(max_rounds):
        move = _best_move(network, channels, users, tolerance)
        if move is None:
            break
        index, replacement = move
        channels[index] = replacement
        improved_any = True

    if not improved_any:
        return solution
    return MUERPSolution(
        channels=tuple(channels),
        users=solution.users,
        method=solution.method + "+ls",
        feasible=True,
        extra_log_rate=solution.extra_log_rate,
    )


def _best_move(
    network: QuantumNetwork,
    channels: List[Channel],
    users: List[Hashable],
    tolerance: float,
) -> Optional[Tuple[int, Channel]]:
    """Best single-channel replacement improving total log rate.

    Removing a tree channel splits the users into two sides; Algorithm
    3's :func:`reconnect` joins them again with the best channel that
    fits beside the other channels.  That covers both moves: the removed
    channel's endpoints are one of the cross pairs (re-route), every
    other cross pair realises the reconnect move.  The side holding the
    removed channel's first endpoint is listed first, so every search
    starts there.
    """
    best_gain = tolerance
    best: Optional[Tuple[int, Channel]] = None
    for index, channel in enumerate(channels):
        unions = UnionFind(users)
        for other in channels[:index] + channels[index + 1 :]:
            unions.union(*other.endpoints)
        anchor = channel.endpoints[0]
        side_a = [u for u in users if unions.connected(u, anchor)]
        side_b = [u for u in users if not unions.connected(u, anchor)]
        residual = _residual_without(network, channels, index)
        added = reconnect(network, side_a + side_b, unions, residual)
        if not added:
            continue
        gain = added[0].log_rate - channel.log_rate
        if gain > best_gain:
            best_gain = gain
            best = (index, added[0])
    return best


def _residual_without(
    network: QuantumNetwork,
    channels: List[Channel],
    skip_index: int,
) -> CapacityLedger:
    """An idle ledger with every channel but one reserved.

    Capped, because a capacity-exempt input tree may overbook a switch.
    """
    ledger = CapacityLedger.from_network(network)
    ledger.reserve_capped(
        channel_usage(c for i, c in enumerate(channels) if i != skip_index)
    )
    return ledger
