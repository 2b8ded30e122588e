"""Entanglement purification integrated with MUERP routing.

Fidelity-aware routing (:mod:`repro.extensions.fidelity_aware`) can only
*select* among channels; when no channel meets the fidelity floor the
request fails.  Purification manufactures fidelity: sacrifice two
identical Werner pairs to produce one higher-fidelity pair (BBPSSW /
recurrence protocol).  For Werner pairs of fidelity ``F`` the standard
closed forms are

    p_succ(F) = F² + (2/3)·F(1−F) + (5/9)(1−F)²
    F'(F)     = (F² + (1/9)(1−F)²) / p_succ(F)

with ``F' > F`` exactly when ``F > 1/2`` (and fixed points at 1 and 1/4).

Routing integration uses the paper's one-shot synchronized-window
semantics: a ``k``-round purified channel needs ``2^k`` simultaneous
copies of the raw channel (all links and swaps in the same window) plus
the purification successes, so

    P_k = P_{k-1}² · p_succ(F_{k-1}),     P_0 = Eq. (1) rate,

and every transit switch must budget ``2·2^k`` qubits.  The solver
:func:`solve_purified_prim` grows a tree choosing, per channel, the
cheapest purification level that satisfies the fidelity floor within the
switch budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.ledger import QUBITS_PER_CHANNEL, CapacityLedger
from repro.core.optimal import channel_sort_key
from repro.core.prim_based import choose_start
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.extensions.fidelity_aware import (
    FidelityModel,
    ParetoChannel,
    pareto_channels,
)
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike
from repro.utils.validation import require_probability


def purification_success(fidelity: float) -> float:
    """BBPSSW success probability for two Werner-``F`` input pairs."""
    require_probability(fidelity, "fidelity")
    bad = (1.0 - fidelity) / 3.0
    return fidelity**2 + 2.0 * fidelity * bad + 5.0 * bad**2


def purify_once(fidelity: float) -> Tuple[float, float]:
    """One BBPSSW round: returns ``(new_fidelity, success_probability)``."""
    p = purification_success(fidelity)
    bad = (1.0 - fidelity) / 3.0
    new_fidelity = (fidelity**2 + bad**2) / p
    return new_fidelity, p


@dataclass(frozen=True)
class PurificationOption:
    """A channel operated at a fixed purification level.

    Attributes:
        channel: The underlying routed channel.
        rounds: BBPSSW rounds ``k`` (0 = raw channel).
        log_rate: One-shot success log-probability ``log P_k``.
        fidelity: Delivered Werner fidelity after ``k`` rounds.
    """

    channel: Channel
    rounds: int
    log_rate: float
    fidelity: float

    @property
    def rate(self) -> float:
        return math.exp(self.log_rate)

    @property
    def qubit_multiplier(self) -> int:
        """Copies of the raw channel needed: ``2^k``."""
        return 2**self.rounds

    def switch_usage(self) -> Dict[Hashable, int]:
        """Qubits the option pins per transit switch: ``2·2^k``."""
        need = QUBITS_PER_CHANNEL * self.qubit_multiplier
        return {switch: need for switch in self.channel.switches}

    def as_channel(self) -> Channel:
        """The option as a rate-adjusted :class:`Channel` (same path)."""
        return Channel(self.channel.path, self.log_rate)


def purification_ladder(
    pareto: ParetoChannel, max_rounds: int
) -> List[PurificationOption]:
    """All purification levels 0..max_rounds of one routed channel."""
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    options = []
    log_rate = pareto.channel.log_rate
    fidelity = pareto.fidelity
    options.append(
        PurificationOption(pareto.channel, 0, log_rate, fidelity)
    )
    for rounds in range(1, max_rounds + 1):
        new_fidelity, p = purify_once(fidelity)
        if p <= 0.0:
            break
        log_rate = 2.0 * log_rate + math.log(p)
        fidelity = new_fidelity
        options.append(
            PurificationOption(pareto.channel, rounds, log_rate, fidelity)
        )
    return options


def best_purified_option(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    min_fidelity: float,
    model: Optional[FidelityModel] = None,
    residual: Optional[CapacityLedger] = None,
    max_rounds: int = 3,
) -> Optional[PurificationOption]:
    """Max-rate (channel, purification level) meeting the fidelity floor.

    Capacity-aware twice over: the underlying channel search respects
    *residual* (``None``: the idle network), and a ``k``-round option
    is admissible only if every transit switch still holds ``2·2^k``
    qubits.
    """
    model = model or FidelityModel()
    if residual is None:
        residual = CapacityLedger.from_network(network)
    frontier = pareto_channels(network, source, target, model, residual)
    best: Optional[PurificationOption] = None
    for pareto in frontier:
        for option in purification_ladder(pareto, max_rounds):
            if option.fidelity < min_fidelity:
                continue
            if not residual.can_reserve(option.switch_usage()):
                continue
            if best is None or option.log_rate > best.log_rate:
                best = option
            break  # higher rounds only cost more rate
    return best


def solve_purified_prim(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    min_fidelity: float = 0.9,
    model: Optional[FidelityModel] = None,
    max_rounds: int = 3,
    start: Optional[Hashable] = None,
    rng: RngLike = None,
) -> Tuple[MUERPSolution, Dict[Tuple[Hashable, ...], int]]:
    """Prim growth with per-channel purification-level selection.

    Returns ``(solution, rounds_by_path)``.  The solution's channels
    carry the purified one-shot rates (so Eq. (2) on it is the whole
    tree's success probability), and ``rounds_by_path`` records the
    chosen BBPSSW rounds per channel path.  Infeasible (rate 0) when no
    fidelity-compliant tree fits the budgets.
    """
    user_list = resolve_users(network, users)
    model = model or FidelityModel()
    start = choose_start(user_list, start, rng)
    connected = [start]
    remaining = [u for u in user_list if u != start]
    ledger = CapacityLedger.from_network(network)
    selected: List[Channel] = []
    rounds_by_path: Dict[Tuple[Hashable, ...], int] = {}

    while remaining:
        best: Optional[PurificationOption] = None
        for source in connected:
            for target in remaining:
                option = best_purified_option(
                    network,
                    source,
                    target,
                    min_fidelity,
                    model,
                    ledger,
                    max_rounds,
                )
                if option is not None and (
                    best is None
                    or channel_sort_key(option.as_channel())
                    < channel_sort_key(best.as_channel())
                ):
                    best = option
        if best is None:
            return (
                infeasible_solution(user_list, "purified_prim"),
                {},
            )
        ledger.reserve(best.switch_usage())
        newcomer = best.channel.endpoints[1]
        remaining.remove(newcomer)
        connected.append(newcomer)
        selected.append(best.as_channel())
        rounds_by_path[best.channel.path] = best.rounds

    solution = MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="purified_prim",
        feasible=True,
    )
    return solution, rounds_by_path
