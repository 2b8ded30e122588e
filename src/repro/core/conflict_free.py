"""Algorithm 3 — the "Conflict-free" capacity-resolving heuristic.

Algorithm 2 ignores switch capacity; when budgets are tight its channel
set can overload switches.  Algorithm 3 repairs this in two phases:

* **Phase 1 (greedy retention).**  Walk Algorithm 2's channels in
  descending rate order; admit a channel only if every switch on it
  still has ≥ 2 residual qubits, deducting 2 per transit switch.  The
  greedy retention of max-rate channels is the paper's explicit design
  choice ("we adopt a greedy strategy that always opts to retain the
  channel with the maximum entanglement rate").
* **Phase 2 (reconnection).**  Rejected channels leave the users split
  into several unions.  Repeatedly find, over all user pairs in distinct
  unions, the maximum-rate channel that respects residual capacity
  (Algorithm 1 with the ledger's relay mask), add the best one and
  merge, until one union remains or no channel exists (→ infeasible,
  rate 0).

A group the ledger's relay graph already splits is declared infeasible
before either phase, after one sweep of that graph.

:func:`retain` and :func:`reconnect` are the two phases on their own,
the greedy steps every other tree builder reuses: LP rounding
(:func:`repro.bounds.rounding.solve_lp_rounding`) retains LP columns
and reconnects what they leave apart, local search
(:func:`repro.core.localsearch.improve_solution`) reconnects the two
sides of a removed channel, and incremental repair
(:func:`repro.extensions.recovery.repair_solution`) and the splice
ladder (:func:`repro.incremental.tree.splice_solution`) reconnect their
surviving unions.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence

from repro.core.channel import ChannelSearches, relay_joined
from repro.core.ledger import CapacityLedger
from repro.core.optimal import solve_optimal
from repro.core.problem import (
    Channel,
    MUERPSolution,
    channel_sort_key,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.unionfind import UnionFind


class _Infeasible(Exception):
    """Internal control flow: abort the solve and roll back reservations."""


def solve_conflict_free(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    base_channels: Optional[Sequence[Channel]] = None,
    retention: str = "greedy",
    rng: RngLike = None,
    residual: Optional[CapacityLedger] = None,
) -> MUERPSolution:
    """Algorithm 3.

    Args:
        network: The quantum network.
        users: Users to entangle (default: all network users).
        base_channels: The candidate channel set ``A``: channels of
            *network* between *users* (defaults to Algorithm 2's output,
            as in the paper).
        retention: ``"greedy"`` (paper) admits Phase-1 channels in
            descending rate order; ``"random"`` shuffles them — the
            ablation documented in DESIGN.md §4.
        rng: Random source for ``retention="random"``.
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
        when no spanning tree fits the switch budgets.

    A group the ledger's relay graph splits
    (:func:`~repro.core.channel.relay_joined`) is refused before
    Algorithm 2's base and any search.  The refusal is exact: Phase 1
    keeps a channel only where the ledger can host it, Phase 2 searches
    under the ledger's mask, and both only reserve, so every relay of a
    kept channel was open at entry; every channel joins requested users
    through switches (the default base does, and *base_channels* must
    be channels of *network* between *users*), so a spanning tree would
    join the users in the relay graph at entry.  Under
    ``retention="random"`` the refusal waits for the shuffle, so *rng*
    moves as it does for a full solve.
    """
    user_list = resolve_users(network, users)
    if retention not in ("greedy", "random"):
        raise ValueError(f"unknown retention policy {retention!r}")
    ledger = residual
    if ledger is None:
        ledger = CapacityLedger.from_network(network)
    joined = relay_joined(network, user_list, ledger)
    if not joined and retention == "greedy":
        return infeasible_solution(user_list, "conflict_free")
    if base_channels is None:
        base = solve_optimal(network, user_list)
        base_channels = base.channels if base.feasible else ()

    if retention == "greedy":
        ordered = sorted(base_channels, key=channel_sort_key)
    else:
        ordered = list(base_channels)
        ensure_rng(rng).shuffle(ordered)
        if not joined:  # after the shuffle, so *rng* draws as it would
            return infeasible_solution(user_list, "conflict_free")

    unions = UnionFind(user_list)
    try:
        with ledger.transaction():
            selected = retain(ordered, unions, ledger)
            selected += reconnect(network, user_list, unions, ledger)
            if unions.n_components > 1:
                raise _Infeasible()
    except _Infeasible:
        return infeasible_solution(user_list, "conflict_free")

    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="conflict_free",
        feasible=True,
    )


def retain(
    channels: Iterable[Channel],
    unions: UnionFind,
    ledger: CapacityLedger,
) -> List[Channel]:
    """Phase 1: keep each of *channels* that joins two unions and fits.

    Walks *channels* in the given order; a channel whose endpoints are
    in distinct *unions* and whose every transit switch still holds 2
    free qubits on *ledger* is reserved there and merges its endpoints.
    Returns the kept channels in that order.
    """
    kept: List[Channel] = []
    for channel in channels:
        a, b = channel.endpoints
        if unions.connected(a, b) or not ledger.can_host(channel):
            continue
        ledger.reserve_channel(channel)
        unions.union(a, b)
        kept.append(channel)
    return kept


def reconnect(
    network: QuantumNetwork,
    users: Sequence[Hashable],
    unions: UnionFind,
    ledger: CapacityLedger,
) -> List[Channel]:
    """Join *unions*' user components greedily, best channel first.

    Each round takes, over every user and the later users of other
    unions, the best channel under *ledger*'s relay mask, reserves it
    (two qubits per relay) on *ledger* and merges its endpoints.  A
    user's search is kept across rounds
    (:class:`~repro.core.channel.ChannelSearches`) and re-run only when
    a reservation blocks a switch on its channel to a wanted user, or
    it met an exact tie.  Returns the added channels;
    ``unions.n_components > 1`` afterwards means some component could
    not be reached.  *users* fixes the search order, and with it each
    channel's direction.
    """
    added: List[Channel] = []
    searches = ChannelSearches(network, ledger)
    while unions.n_components > 1:
        requests = []
        for index, source in enumerate(users):
            targets = [
                t for t in users[index + 1 :] if not unions.connected(source, t)
            ]
            if targets:
                requests.append((source, targets))
        best = searches.best_among(requests)
        if best is None:
            break
        channel = best[1]
        searches.reserve(channel)
        unions.union(*channel.endpoints)
        added.append(channel)
    return added
