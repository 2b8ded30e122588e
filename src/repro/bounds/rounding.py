"""Randomized rounding: integral entanglement trees from the LP.

The ``"lp_rounding"`` solver (registered in
:mod:`repro.core.registry`, appended to :func:`solve_robust`'s default
fallback chain) extracts a spanning tree from the fractional optimum
of :func:`repro.bounds.lp.solve_relaxation`:

1. Solve the LP relaxation once; its columns are concrete
   :class:`~repro.core.problem.Channel` objects with fractional mass.
2. Each attempt spends on its own fork of the idle
   :class:`~repro.core.ledger.CapacityLedger` and runs Algorithm 3's
   Phase 1, :func:`~repro.core.conflict_free.retain`, over the columns
   — attempt 0 visits them in deterministic descending-rate order,
   attempt 1 prefers the fractional support, and later attempts draw a
   mass-biased random order from the caller's rng stream (the standard
   exponential-key weighted shuffle, so same seed ⇒ byte-identical
   attempt sequence).  A column is kept iff its endpoints are in
   different user components *and* the fork can still host it.
3. If the kept columns do not span every user (their mass sat on
   switches another column already drained), Algorithm 3's Phase 2,
   :func:`~repro.core.conflict_free.reconnect`, joins the components
   with best-channel searches against the fork's residual.
4. Audit the result with :class:`~repro.verify.verifier.SolutionVerifier`
   (capacity enforced) and keep the best verified tree across attempts.

Because every channel enters through a capacity check on the fork, the
output can never overbook a switch; the audit in step 4 re-derives
that from scratch anyway.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List, Optional

import numpy as np

from repro.bounds.lp import LPRelaxationResult, solve_relaxation
from repro.core.conflict_free import reconnect, retain
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
import repro.obs.metrics as obs_metrics
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.unionfind import UnionFind
from repro.verify.verifier import SolutionVerifier

__all__ = ["solve_lp_rounding", "DEFAULT_ATTEMPTS"]

#: Rounding attempts per solve (1 deterministic + the rest randomized).
DEFAULT_ATTEMPTS = 8

#: Columns with at least this much LP mass get a deterministic-pass
#: priority boost; pure-zero columns still participate (they are real
#: channels and the repair step may want them).
_MASS_FLOOR = 1e-4


def _attempt_order(
    attempt: int,
    relaxation: LPRelaxationResult,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> List[int]:
    """Column visit order for one rounding attempt.

    Attempt 0 is a pure rate-greedy pass (empirically the strongest
    single ordering — it recovers the Algorithm-2 tree whenever the LP
    support contains it), attempt 1 prefers the fractional support and
    orders by rate within it, and later attempts draw a mass-biased
    random order (exponential-key weighted shuffle) from the caller's
    rng stream.
    """
    columns = relaxation.columns
    n = len(columns)
    if attempt == 0:
        return sorted(
            range(n), key=lambda j: (-columns[j].channel.log_rate, j)
        )
    if attempt == 1:
        return sorted(
            range(n),
            key=lambda j: (
                0 if weights[j] > _MASS_FLOOR else 1,
                -columns[j].channel.log_rate,
                j,
            ),
        )
    draws = rng.random(n)
    keys = draws ** (1.0 / weights)
    return sorted(
        range(n),
        key=lambda j: (-keys[j], -columns[j].channel.log_rate, j),
    )


def solve_lp_rounding(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    rng: RngLike = None,
    *,
    backend: str = "auto",
    attempts: int = DEFAULT_ATTEMPTS,
    relaxation: Optional[LPRelaxationResult] = None,
) -> MUERPSolution:
    """Round the LP relaxation into a verified entanglement tree.

    Args:
        network: The quantum network.
        users: User subset to span (defaults to all network users).
        rng: Seed or generator for the randomized attempts; the stream
            is consumed deterministically, so a fixed seed reproduces
            the solution byte for byte.
        backend: LP backend passed to :func:`solve_relaxation`.
        attempts: Total rounding attempts (first is deterministic).
        relaxation: Reuse an already-solved relaxation (the CLI and
            benchmarks do this to avoid paying for the LP twice).

    Returns:
        The best verified tree found, or the canonical infeasible
        solution when the LP itself is infeasible or every attempt
        fails.
    """
    started = time.perf_counter()
    user_list = sorted(resolve_users(network, users), key=repr)
    generator = ensure_rng(rng)
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("bounds.rounding.calls")

    if relaxation is None:
        relaxation = solve_relaxation(network, user_list, backend=backend)
    if not relaxation.certificate.feasible or not relaxation.columns:
        if metrics is not None:
            metrics.inc("bounds.rounding.infeasible")
        return infeasible_solution(user_list, "lp_rounding")

    weights = np.maximum(
        np.asarray(relaxation.values, dtype=float), _MASS_FLOOR
    )
    verifier = SolutionVerifier()
    idle = CapacityLedger.from_network(network)
    best_solution: Optional[MUERPSolution] = None
    attempts = max(1, attempts)
    failures = 0
    repairs = 0

    for attempt in range(attempts):
        order = _attempt_order(attempt, relaxation, weights, generator)
        ledger = idle.fork()
        unions = UnionFind(user_list)
        chosen = retain(
            (relaxation.columns[j].channel for j in order), unions, ledger
        )
        added = reconnect(network, user_list, unions, ledger)
        if unions.n_components > 1:
            failures += 1
            continue
        repairs += len(added)
        candidate = MUERPSolution(
            channels=tuple(chosen + added),
            users=frozenset(user_list),
            method="lp_rounding",
        )
        if verifier.audit(
            network, candidate, users=user_list, enforce_capacity=True
        ):
            failures += 1
            continue
        if (
            best_solution is None
            or candidate.log_rate > best_solution.log_rate
        ):
            best_solution = candidate

    if metrics is not None:
        metrics.inc("bounds.rounding.attempts", attempts)
        metrics.inc("bounds.rounding.retries", failures)
        metrics.inc("bounds.rounding.repair_channels", repairs)
        metrics.observe(
            "bounds.rounding.solve_seconds", time.perf_counter() - started
        )
    if best_solution is None:
        if metrics is not None:
            metrics.inc("bounds.rounding.exhausted")
        return infeasible_solution(user_list, "lp_rounding")
    return best_solution
