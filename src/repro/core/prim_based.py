"""Algorithm 4 — the Prim-based heuristic.

Grows the entanglement tree from a single seed user.  Each round finds,
over all (connected user, unconnected user) pairs, the maximum-rate
channel that respects residual switch capacity, adds it, deducts the
qubits, and moves the newly connected user into the tree.  After
``|U| − 1`` successful rounds all users are entangled; if some round
finds no channel the instance is declared infeasible (rate 0).  A group
the ledger's relay graph already splits is declared infeasible before
the first round, after one sweep of that graph.

Algorithm 1's search reads the residual budget only through its relay
mask (switches with ≥ 2 free qubits), so each connected user's search
is kept across rounds (:class:`~repro.core.channel.ChannelSearches`): a
round searches from the newcomer, and again from an earlier source only
when a switch the round blocked lies on that source's channel to a
still-unconnected user, or the source's search met an exact tie.  With
``Q ≥ 2|U|`` no switch is ever blocked and a solve runs ``|U| − 1``
searches.

Unlike Algorithm 3 this needs no Algorithm 2 output to start from.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Set

from repro.core.channel import ChannelSearches, relay_joined
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng


class _Infeasible(Exception):
    """Internal control flow: abort the solve and roll back reservations."""


def choose_start(
    users: Sequence[Hashable],
    start: Optional[Hashable] = None,
    rng: RngLike = None,
) -> Hashable:
    """The seed user ``u_0`` a Prim-style growth starts from.

    *start* when given (it must be one of *users*); otherwise one user
    drawn uniformly with *rng*, as the paper does.  Every Prim variant
    draws its seed here, so one rng seed starts them all alike.
    """
    if start is None:
        return users[int(ensure_rng(rng).integers(0, len(users)))]
    if start not in users:
        raise ValueError(f"start {start!r} is not among the users")
    return start


def solve_prim(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    start: Optional[Hashable] = None,
    rng: RngLike = None,
    residual: Optional[CapacityLedger] = None,
) -> MUERPSolution:
    """Algorithm 4.

    Args:
        network: The quantum network.
        users: Users to entangle (default: all network users).
        start: Seed user ``u_0``; when omitted one is drawn with *rng*
            (the paper picks it uniformly at random).
        rng: Random source for the seed choice; an int seed, a numpy
            Generator, or ``None``.
        residual: Optional shared
            :class:`~repro.core.ledger.CapacityLedger`, so several
            routing requests can share one budget (the multi-group
            extension).  Defaults to each switch's full budget.  The
            tree's qubits are reserved on it only when this call
            returns a *feasible* tree; a mid-solve exception or an
            infeasible outcome rolls every reservation back.  Pass
            :meth:`~repro.core.ledger.CapacityLedger.fork` to try a
            route without spending.

    Returns:
        A capacity-feasible :class:`MUERPSolution`, infeasible (rate 0)
        when growth gets stuck before spanning all users.

    Once the seed user is drawn, a group the ledger's relay graph
    splits (:func:`~repro.core.channel.relay_joined`) is refused
    without a search.  The refusal is exact: the growth only reserves,
    so every relay of every channel it could pick was open at entry,
    and its channels join requested users through switches, so a
    spanning tree would join the users in the relay graph at entry.
    The draw comes first, so *rng* moves as it does for a full solve.
    """
    user_list = resolve_users(network, users)
    start = choose_start(user_list, start, rng)
    ledger = residual
    if ledger is None:
        ledger = CapacityLedger.from_network(network)
    if not relay_joined(network, user_list, ledger):
        return infeasible_solution(user_list, "prim")
    connected: List[Hashable] = [start]
    remaining: Set[Hashable] = set(user_list) - {start}
    selected: List[Channel] = []
    searches = ChannelSearches(network, ledger, user_list)

    try:
        with ledger.transaction():
            while remaining:
                best = searches.best_among(
                    (source, remaining) for source in connected
                )
                if best is None:
                    raise _Infeasible()
                channel = best[1]
                searches.reserve(channel)
                newcomer = channel.endpoints[1]
                remaining.discard(newcomer)
                connected.append(newcomer)
                selected.append(channel)
    except _Infeasible:
        return infeasible_solution(user_list, "prim")

    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="prim",
        feasible=True,
    )
