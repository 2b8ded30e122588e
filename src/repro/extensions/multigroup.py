"""Concurrent routing of multiple independent entanglement groups.

The paper's model "is readily extendable to … concurrent routing of
multiple independent entanglement groups" (Sec. I); this module builds
that extension.  Several disjoint (or overlapping) user groups request
entanglement trees over the *same* switch budgets; qubits consumed by
one group are unavailable to the next.

Routing is sequential over a configurable group order with a shared
residual-qubit map; each group is solved with Algorithm 3 or 4 (both
accept shared residuals).  The scheduler order is itself a design knob:

* ``"largest_first"`` — groups with more users route first (they are the
  hardest to fit; default);
* ``"smallest_first"`` — the opposite;
* ``"given"`` — caller-specified priority order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.core.problem import MUERPSolution
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class GroupRequest:
    """One entanglement group: a named set of quantum users."""

    name: str
    users: Tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.users) < 2:
            raise ValueError(
                f"group {self.name!r} needs >= 2 users, got {len(self.users)}"
            )
        if len(set(self.users)) != len(self.users):
            raise ValueError(f"group {self.name!r} has duplicate users")


@dataclass(frozen=True)
class GroupRoutingResult:
    """Solutions per group plus aggregate metrics."""

    solutions: Dict[str, MUERPSolution]
    order: Tuple[str, ...]

    @property
    def all_feasible(self) -> bool:
        return all(s.feasible for s in self.solutions.values())

    @property
    def n_feasible(self) -> int:
        return sum(1 for s in self.solutions.values() if s.feasible)

    @property
    def product_rate(self) -> float:
        """Probability every group entangles in the same window."""
        product = 1.0
        for solution in self.solutions.values():
            product *= solution.rate
        return product

    @property
    def min_rate(self) -> float:
        """Worst group's rate (fairness metric); 0 if any group failed."""
        if not self.solutions:
            return 0.0
        return min(s.rate for s in self.solutions.values())


def route_groups(
    network: QuantumNetwork,
    groups: Sequence[GroupRequest],
    method: str = "prim",
    order: str = "largest_first",
    rng: RngLike = None,
    ledger: Optional[CapacityLedger] = None,
) -> GroupRoutingResult:
    """Route every group over a shared switch budget.

    Args:
        network: The quantum network.
        groups: The entanglement groups (names must be unique).
        method: Per-group solver: ``"prim"`` (Algorithm 4) or
            ``"conflict_free"`` (Algorithm 3).
        order: Scheduling order — ``"largest_first"``,
            ``"smallest_first"`` or ``"given"``.
        rng: Random source forwarded to the per-group solver.
        ledger: Shared :class:`~repro.core.ledger.CapacityLedger` to
            reserve against (e.g. the serving layer's live account); a
            private one over the idle network is built when omitted.

    Returns:
        A :class:`GroupRoutingResult`; groups that cannot be routed under
        the remaining budget get infeasible (rate 0) solutions, later
        groups still get their chance with whatever capacity remains.

    The whole sequence runs inside one ledger transaction: every
    per-group reservation lands in ``repro.core.ledger.*`` telemetry,
    and an exception mid-sequence rolls *all* groups back instead of
    leaving phantom reservations in a caller-supplied ledger.
    """
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        raise ValueError("group names must be unique")
    if method not in ("prim", "conflict_free"):
        raise ValueError(f"unsupported per-group method {method!r}")

    if order == "largest_first":
        scheduled = sorted(groups, key=lambda g: (-len(g.users), g.name))
    elif order == "smallest_first":
        scheduled = sorted(groups, key=lambda g: (len(g.users), g.name))
    elif order == "given":
        scheduled = list(groups)
    else:
        raise ValueError(f"unknown order {order!r}")

    generator = ensure_rng(rng)
    account = ledger
    if account is None:
        account = CapacityLedger.from_network(network)
    solutions: Dict[str, MUERPSolution] = {}
    with account.transaction():
        for group in scheduled:
            # The solvers spend from the ledger directly and are
            # themselves transactional: an infeasible group — or a
            # mid-solve exception — reserves nothing on the account.
            if method == "prim":
                solution = solve_prim(
                    network, group.users, rng=generator, residual=account
                )
            else:
                solution = solve_conflict_free(
                    network, group.users, rng=generator, residual=account
                )
            solutions[group.name] = solution
    return GroupRoutingResult(
        solutions=solutions, order=tuple(g.name for g in scheduled)
    )


def optimize_group_order(
    network: QuantumNetwork,
    groups: Sequence[GroupRequest],
    method: str = "prim",
    objective: str = "product",
    max_permutations: int = 120,
    rng: RngLike = None,
) -> GroupRoutingResult:
    """Search over serving orders for the best multi-group outcome.

    Sequential routing is order-sensitive: an early group can starve a
    later one of the only good corridor.  This helper tries serving
    orders — exhaustively when ``len(groups)! ≤ max_permutations``,
    otherwise that many random permutations — and keeps the best under
    the chosen objective.

    Args:
        objective: ``"product"`` maximizes the all-groups-at-once
            success probability (0 whenever any group fails, so it also
            maximizes the feasible count); ``"min"`` maximizes the worst
            group's rate (max-min fairness).
        max_permutations: Evaluation budget.

    Returns:
        The best :class:`GroupRoutingResult` found (its ``order`` field
        records the winning sequence).
    """
    import itertools

    if objective not in ("product", "min"):
        raise ValueError(f"unknown objective {objective!r}")
    groups = list(groups)
    generator = ensure_rng(rng)

    total = math.factorial(len(groups))
    if total <= max_permutations:
        orders = list(itertools.permutations(groups))
    else:
        orders = []
        for _ in range(max_permutations):
            shuffled = list(groups)
            generator.shuffle(shuffled)
            orders.append(tuple(shuffled))

    def score(result: GroupRoutingResult) -> tuple:
        if objective == "product":
            return (result.n_feasible, result.product_rate)
        return (result.n_feasible, result.min_rate)

    best: Optional[GroupRoutingResult] = None
    for order in orders:
        candidate = route_groups(
            network, list(order), method=method, order="given", rng=generator
        )
        if best is None or score(candidate) > score(best):
            best = candidate
    assert best is not None  # orders is never empty (0! == 1)
    return best
