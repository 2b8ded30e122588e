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
import repro.obs.metrics as obs_metrics

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
    """N-FUSION baseline: the best star over the candidate centers.

    The candidates are every user, or only *center* when it is given.
    The star's rate is the product of the member channels' rates
    (Eq. 1 each) times the final fusion's success probability, which
    the solution carries as its ``extra_log_rate``.  The first
    candidate in input order with the highest total wins.  *rng* is
    unused: the baseline draws nothing.

    The solve runs in two phases, and only stars that can still win are
    grown:

    1. Each center opens its :class:`~repro.core.channel.ChannelSearches`
       on its own fork of the idle ledger and runs its first search, the
       star's first round.  A center whose first search misses a user
       is infeasible, since blocking only removes paths.  Otherwise the
       search bounds the star from its weights alone, building no
       channel: ``B(c) = fusion − Σ_u Ŵ(c→u)``, with ``Ŵ`` the search
       weight of the first channel to ``u``.
    2. Stars grow in descending ``B(c)``, ties in input order, each
       continuing its center's kept search (:func:`_route_star`).  A
       center with ``B(c) + margin < best_total`` is skipped.  A total
       replaces the incumbent when it is higher, or equal with a smaller
       input index.

    Why ``total(c) ≤ B(c) + margin``.  Let ``u = 2⁻⁵³`` and, for a
    channel ``P`` of ``l`` links, ``W(P) = α·ΣL + (l−1)·(−ln q)`` in
    exact arithmetic, with ``ln q`` the float both sides use.  The
    search sums ``W`` hop by hop in floats from terms ``≥ 0``, so its
    weight ``Ŵ(P)`` is within ``(2l+1)·u·W(P)`` of ``W(P)``; Eq. (1)'s
    ``log_rate(P)`` takes four roundings of one-signed terms
    (``fsum``, ``α·``, ``(l−1)·ln q``, their sum), so it is within
    ``4u·W(P)`` of ``−W(P)``.  A later round's channel ``C`` to ``u``
    searches a ledger that has only lost relays, so ``Ŵ(C) ≥ Ŵ(P)``
    for the first search's ``P`` (float path sums are monotone), hence
    ``log_rate(C) ≤ −Ŵ(P) + (2|V| + 6)·u·Ŵ(P)``.  The two ``|U|``-term
    float sums add ``|U|·u`` of their terms' magnitudes each.  The
    total rounding error is thus below ``(2|V| + 2|U| + 8)·u·S``, with
    ``S`` the sum of ``B(c)``'s terms' magnitudes (``|B(c)|`` itself
    when ``μ ≤ 1``, as every term is then ``≤ 0``).
    ``margin = 1e-9·(|U| + S)`` exceeds it, and the one rounding of
    ``B(c) + margin``, for any network under a million nodes; the
    ``|U|`` floor keeps it positive when every term is 0.
    A center whose total ties the incumbent therefore never falls
    below the cut.  Nothing is pruned while ``B(c)`` or the incumbent
    is not finite (``q = 0`` makes every total ``−inf``).

    Once per solve the counters ``baselines.nfusion.centers`` and
    ``baselines.nfusion.centers_pruned`` go to the active
    :class:`~repro.obs.metrics.MetricsRegistry`.

    Returns an infeasible solution (rate 0) when no center can reach all
    other users within residual switch capacity.
    """
    user_list = resolve_users(network, users)
    centers = [center] if center is not None else user_list
    if center is not None and center not in user_list:
        raise ValueError(f"center {center!r} is not among the users")

    fusion = fusion_log_success(
        len(user_list), network.params.swap_prob, fusion_penalty
    )
    idle = CapacityLedger.from_network(network)
    bounded = []
    for index, candidate in enumerate(centers):
        pending = [u for u in user_list if u != candidate]
        searches = ChannelSearches(network, idle.fork(), user_list)
        weights = searches.reach(candidate, pending)
        if len(weights) < len(pending):
            continue
        links = -sum(weights.values())
        margin = 1e-9 * (len(user_list) + abs(links) + abs(fusion))
        bounded.append((links + fusion, margin, index, candidate, searches))
    # sort is stable, so equal bounds keep input order.
    bounded.sort(key=lambda entry: entry[0], reverse=True)

    best: Optional[Tuple[float, int, List[Channel]]] = None
    pruned = 0
    for bound, margin, index, candidate, searches in bounded:
        if best is not None and not _may_reach(bound, margin, best[0]):
            pruned += 1
            continue
        star = _route_star(network, candidate, user_list, None, searches)
        if star is None:
            continue
        total = sum(c.log_rate for c in star) + fusion
        if (
            best is None
            or total > best[0]
            or (total == best[0] and index < best[1])
        ):
            best = (total, index, star)

    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("baselines.nfusion.centers", len(centers))
        metrics.inc("baselines.nfusion.centers_pruned", pruned)

    if best is None:
        return infeasible_solution(user_list, "nfusion")

    total_log_rate, _, channels = best
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


def _may_reach(bound: float, margin: float, best_total: float) -> bool:
    """Whether a star whose total is at most ``bound + margin`` may
    still reach *best_total*: always while either is not finite."""
    if not (math.isfinite(bound) and math.isfinite(best_total)):
        return True
    return bound + margin >= best_total


def _route_star(
    network: QuantumNetwork,
    center: Hashable,
    user_list: List[Hashable],
    ledger: Optional[CapacityLedger],
    searches: Optional[ChannelSearches] = None,
) -> Optional[List[Channel]]:
    """Route channels center→every other user, spending from *ledger*,
    or from the ledger of *searches* when given (N-FUSION's second
    phase hands over each center's, its first search kept).

    Targets are admitted in descending single-shot rate order (the
    baseline's greedy).  The center's search is kept across admissions
    (:class:`~repro.core.channel.ChannelSearches`) and re-run only when
    an admission blocks a switch on its channel to a pending user, or
    the search met an exact tie.  ``None`` when any user becomes
    unreachable.
    """
    pending = [u for u in user_list if u != center]
    star: List[Channel] = []
    if searches is None:
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
