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

from repro.core.channel import best_channels_from
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
    """Best single-channel replacement improving total log rate."""
    best_gain = tolerance
    best: Optional[Tuple[int, Channel]] = None
    for index, channel in enumerate(channels):
        residual = _residual_without(network, channels, index)
        replacement = _best_replacement(
            network, channels, index, users, residual
        )
        if replacement is None:
            continue
        gain = replacement.log_rate - channel.log_rate
        if gain > best_gain:
            best_gain = gain
            best = (index, replacement)
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


def _best_replacement(
    network: QuantumNetwork,
    channels: List[Channel],
    index: int,
    users: List[Hashable],
    residual: CapacityLedger,
) -> Optional[Channel]:
    """Best channel reconnecting the two components split by removal.

    Covers both moves: the original endpoints are one of the candidate
    cross pairs (re-route) and all other cross pairs realise the
    reconnect move.
    """
    remaining = [c for i, c in enumerate(channels) if i != index]
    unions = UnionFind(users)
    for channel in remaining:
        unions.union(*channel.endpoints)
    side_a = [u for u in users if unions.connected(u, channels[index].endpoints[0])]
    side_b = [u for u in users if u not in set(side_a)]
    if not side_a or not side_b:
        return None  # removal didn't split: shouldn't happen on a tree

    best: Optional[Channel] = None
    for source in side_a:
        found = best_channels_from(network, source, side_b, residual)
        for candidate in found.values():
            if best is None or candidate.log_rate > best.log_rate:
                best = candidate
    return best
