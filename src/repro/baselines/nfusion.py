"""N-FUSION: GHZ distribution via a central user (MP-P style).

The paper's second baseline (Sec. V-A) adapts the MP-P algorithm of
Sutcliffe & Beghelli: a central user connects to every other user
through a Bell-pair channel (like "Tree B" in their Fig. 3), then fuses
the collected qubits with an ``n``-fusion (GHZ projective measurement)
into one GHZ state spanning all users.  Unlike MP-P's infinite-capacity
switches, N-FUSION switches keep their limited qubit budgets.

Fusion success model (substitution, documented in DESIGN.md): an
``n``-fusion manipulates ``n`` inherently fragile qubits at once and has
a lower success rate than a BSM (Sec. I).  We model

    q_fusion(n) = q^(n-1) · μ^(n-2),     n ≥ 2,

which reduces exactly to the BSM rate ``q`` at ``n = 2`` (BSM is
2-fusion) and decays faster than a chain of BSMs for larger ``n`` via
the GHZ-measurement difficulty factor ``μ`` (default 0.9).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Optional, Tuple

from repro.core.channel import ChannelSearches
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.core.rates import swap_log_rate
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike

#: GHZ-measurement difficulty factor μ: per-extra-qubit multiplicative
#: penalty of an n-fusion beyond the chained-BSM cost.
DEFAULT_FUSION_PENALTY = 0.9


def fusion_log_success(
    n: int, swap_prob: float, penalty: float = DEFAULT_FUSION_PENALTY
) -> float:
    """Log success probability of an ``n``-fusion (``n ≥ 2``).

    ``n = 2`` coincides with one BSM: ``log q``.
    """
    if n < 2:
        raise ValueError(f"fusion needs at least 2 qubits, got {n}")
    base = swap_log_rate(swap_prob)
    if math.isinf(base):
        return -math.inf
    return (n - 1) * base + (n - 2) * math.log(penalty)


def solve_nfusion(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    center: Optional[Hashable] = None,
    fusion_penalty: float = DEFAULT_FUSION_PENALTY,
    rng: RngLike = None,
) -> MUERPSolution:
    """N-FUSION baseline.

    Every candidate center user is tried (unless *center* is given) and
    the best feasible star is returned.  The star's rate is the product
    of the member channels' rates (Eq. 1 each) times the final fusion's
    success probability — encoded by attaching the fusion's log rate to
    the solution via a rate-adjusted channel set.

    Returns an infeasible solution (rate 0) when no center can reach all
    other users within residual switch capacity.
    """
    user_list = resolve_users(network, users)
    centers = [center] if center is not None else user_list
    if center is not None and center not in user_list:
        raise ValueError(f"center {center!r} is not among the users")

    idle = CapacityLedger.from_network(network)
    best: Optional[Tuple[float, List[Channel]]] = None
    for candidate in centers:
        star = _route_star(network, candidate, user_list, idle.fork())
        if star is None:
            continue
        fusion = fusion_log_success(
            len(user_list), network.params.swap_prob, fusion_penalty
        )
        total = sum(c.log_rate for c in star) + fusion
        if best is None or total > best[0]:
            best = (total, star)

    if best is None:
        return infeasible_solution(user_list, "nfusion")

    total_log_rate, channels = best
    # Channels keep their true Eq. (1) rates; the final GHZ fusion's
    # success probability is recorded as the solution's extra factor.
    fusion = total_log_rate - sum(c.log_rate for c in channels)
    return MUERPSolution(
        channels=tuple(channels),
        users=frozenset(user_list),
        method="nfusion",
        feasible=True,
        extra_log_rate=fusion,
    )


def _route_star(
    network: QuantumNetwork,
    center: Hashable,
    user_list: List[Hashable],
    ledger: CapacityLedger,
) -> Optional[List[Channel]]:
    """Route channels center→every other user, spending from *ledger*.

    Targets are admitted in descending single-shot rate order (the
    baseline's greedy).  The center's search is kept across admissions
    (:class:`~repro.core.channel.ChannelSearches`) and re-run only when
    an admission blocks a switch on its channel to a pending user, or
    the search met an exact tie.  ``None`` when any user becomes
    unreachable.
    """
    pending = [u for u in user_list if u != center]
    star: List[Channel] = []
    searches = ChannelSearches(network, ledger)
    while pending:
        best = searches.best(center, pending)
        if best is None:
            return None
        channel = best[1]
        searches.reserve(channel)
        star.append(channel)
        pending.remove(channel.endpoints[1])
    return star
