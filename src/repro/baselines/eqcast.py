"""E-Q-CAST: Q-CAST extended to multi-user entanglement by chaining.

Q-CAST (Shi & Qian, SIGCOMM 2020) routes entanglement for *pairs* of
users.  The paper's extension (Sec. V-A): to entangle
``{u_1, …, u_n}``, establish channels ``<u_1,u_2>, <u_2,u_3>, …,
<u_{n-1},u_n>`` — a chain in a fixed user order, each link of the chain
routed like a two-user request.

Substitution note (documented in DESIGN.md): the original Q-CAST routes
with its "EXT" expected-throughput metric over multi-width paths; with
width-1 channels and the paper's single-attempt success model, the
highest-EXT path degenerates to the maximum-success-probability path, so
we reuse Algorithm 1's capacity-aware max-rate search per chain pair.
The chain's weakness versus the proposed algorithms is structural: the
pair order is arbitrary rather than rate-optimized.
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
from repro.utils.rng import RngLike


def solve_eqcast(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    order: Optional[List[Hashable]] = None,
    rng: RngLike = None,
) -> MUERPSolution:
    """E-Q-CAST baseline.

    Args:
        network: The quantum network.
        users: Users to entangle (default: all network users).
        order: Explicit chain order; defaults to the request order (the
            natural "additional pairs" extension the paper describes).
        rng: Unused; accepted for registry-call uniformity.

    Returns:
        A capacity-feasible chain :class:`MUERPSolution`, or an
        infeasible one (rate 0) when some consecutive pair cannot be
        routed within residual switch capacity.
    """
    user_list = resolve_users(network, users)
    chain = list(order) if order is not None else user_list
    if set(chain) != set(user_list):
        raise ValueError("order must be a permutation of the users")

    ledger = CapacityLedger.from_network(network)
    selected: List[Channel] = []
    for source, target in zip(chain, chain[1:]):
        channel = find_best_channel(network, source, target, ledger)
        if channel is None:
            return infeasible_solution(user_list, "eqcast")
        ledger.reserve_channel(channel)
        selected.append(channel)

    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="eqcast",
        feasible=True,
    )
