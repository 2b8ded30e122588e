"""Name-based solver registry and the hardened solve path.

The experiment harness and CLI refer to algorithms by name; baselines in
:mod:`repro.baselines` register themselves here on import, so importing
:mod:`repro` yields the full menu.

Beyond plain dispatch (:func:`solve`), this module provides the
*hardened* entry point :func:`solve_robust`: a configurable fallback
chain of solvers run under wall-clock watchdogs and a circuit breaker,
with every candidate independently re-checked by the
:class:`~repro.verify.verifier.SolutionVerifier` before it is accepted.
Each attempt — accepted, timed out, crashed, invalid, infeasible or
skipped by an open breaker — is recorded in a :class:`SolveAudit`
attached to the returned result, so a served solution is always
attributable to the solver that produced it and a failure to the exact
reasons each link of the chain was rejected.
"""

from __future__ import annotations

import difflib
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.conflict_free import solve_conflict_free
from repro.core.optimal import solve_optimal
from repro.core.prim_based import solve_prim
from repro.core.problem import MUERPSolution, infeasible_solution, resolve_users
from repro.network.graph import QuantumNetwork
import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_tracing
from repro.utils.rng import RngLike

logger = logging.getLogger("repro.core.registry")

Solver = Callable[..., MUERPSolution]

SOLVERS: Dict[str, Solver] = {}

#: Display names matching the paper's figure legends.
DISPLAY_NAMES: Dict[str, str] = {}

#: Solvers whose output may exceed per-switch budgets because they model
#: the sufficient-capacity special case (Theorem 3 / Fig. 8a).
CAPACITY_EXEMPT_METHODS = frozenset({"optimal", "alg2"})

#: Default fallback chain for :func:`solve_robust`: the paper's
#: capacity-aware heuristics in decreasing solution-quality order, with
#: the LP-rounding approximation (:mod:`repro.bounds.rounding`) as the
#: final capacity-aware backstop.
DEFAULT_CHAIN: Tuple[str, ...] = ("conflict_free", "prim", "lp_rounding")


class UnknownSolverError(KeyError):
    """An unregistered solver name, with the menu and a best guess."""

    def __init__(self, name: str, available: Iterable[str]) -> None:
        self.name = name
        self.available = tuple(sorted(available))
        suggestions = difflib.get_close_matches(
            str(name), [str(a) for a in self.available], n=1, cutoff=0.5
        )
        hint = f" — did you mean {suggestions[0]!r}?" if suggestions else ""
        super().__init__(
            f"unknown solver {name!r}; registered solvers: "
            f"{list(self.available)}{hint}"
        )


class SolveTimeout(RuntimeError):
    """A solver exceeded its wall-clock watchdog budget."""

    def __init__(self, method: str, timeout_s: float) -> None:
        super().__init__(
            f"solver {method!r} exceeded its {timeout_s:g}s watchdog"
        )
        self.method = method
        self.timeout_s = timeout_s


def register_solver(
    name: str, solver: Solver, display: Optional[str] = None
) -> None:
    """Register *solver* under *name* (overwrites silently for reloads)."""
    SOLVERS[name] = solver
    DISPLAY_NAMES[name] = display or name


def solve(
    method: str,
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    rng: RngLike = None,
) -> MUERPSolution:
    """Run the named solver on *network*.

    All registered solvers share the ``(network, users=..., rng=...)``
    calling convention; solvers that are deterministic ignore *rng*.

    Raises:
        UnknownSolverError: (a ``KeyError``) for an unregistered name,
            listing the registry contents and a closest-match hint.
    """
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise UnknownSolverError(method, SOLVERS) from None
    return solver(network, users=users, rng=rng)


# ----------------------------------------------------------------------
# Hardened solving: watchdog + circuit breaker + verification fallback.
# ----------------------------------------------------------------------

#: Attempt status codes recorded in a :class:`SolveAudit`.
ACCEPTED = "accepted"
INFEASIBLE = "infeasible"
INVALID = "invalid"
TIMEOUT = "timeout"
ERROR = "error"
BREAKER_OPEN = "breaker-open"


@dataclass(frozen=True)
class SolveAttempt:
    """One link of the fallback chain and what became of it."""

    method: str
    status: str
    elapsed_s: float = 0.0
    detail: str = ""
    violations: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "status": self.status,
            "elapsed_s": round(self.elapsed_s, 6),
            "detail": self.detail,
            "violations": list(self.violations),
        }


@dataclass
class SolveAudit:
    """Full provenance of one :func:`solve_robust` call.

    Attributes:
        chain: The solver names tried, in order.
        attempts: Per-solver outcome records.
        winner: Name of the solver whose solution was accepted
            (``None`` when the whole chain failed).
        verified: Whether the accepted solution passed independent
            verification (always ``False`` when ``verify=False``).
    """

    chain: Tuple[str, ...] = ()
    attempts: List[SolveAttempt] = field(default_factory=list)
    winner: Optional[str] = None
    verified: bool = False

    @property
    def succeeded(self) -> bool:
        return self.winner is not None

    def attempt_for(self, method: str) -> SolveAttempt:
        for attempt in self.attempts:
            if attempt.method == method:
                return attempt
        raise KeyError(f"no attempt recorded for {method!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "chain": list(self.chain),
            "attempts": [a.to_dict() for a in self.attempts],
            "winner": self.winner,
            "verified": self.verified,
        }

    def render(self) -> str:
        """Human-readable audit trail, one line per attempt."""
        lines = [f"solve audit (chain: {' -> '.join(self.chain)})"]
        for attempt in self.attempts:
            line = (
                f"  {attempt.method:<16} {attempt.status:<12} "
                f"{attempt.elapsed_s * 1000:8.2f} ms"
            )
            if attempt.detail:
                line += f"  {attempt.detail}"
            if attempt.violations:
                line += f"  violations={list(attempt.violations)}"
            lines.append(line)
        lines.append(
            f"  winner: {self.winner or 'none'}"
            + (" (verified)" if self.verified else "")
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class RobustSolveResult:
    """A solution plus the audit trail that produced it."""

    solution: MUERPSolution
    audit: SolveAudit

    @property
    def feasible(self) -> bool:
        return self.solution.feasible


class CircuitBreaker:
    """Per-solver circuit breaker for the fallback chain.

    A solver that fails (crash, timeout, invalid output)
    ``failure_threshold`` times in a row is *open*: it is skipped for
    the next ``cooldown`` times it would be consulted, then allowed one
    half-open probe.  A success anywhere closes its breaker.
    Infeasible-but-honest outcomes are not failures.
    """

    def __init__(self, failure_threshold: int = 3, cooldown: int = 2) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._consecutive: Dict[str, int] = {}
        self._skips_left: Dict[str, int] = {}

    def allow(self, method: str) -> bool:
        """Whether the chain may try *method* now (consumes a cooldown)."""
        skips = self._skips_left.get(method, 0)
        if skips > 0:
            self._skips_left[method] = skips - 1
            return False
        return True

    def is_open(self, method: str) -> bool:
        return self._skips_left.get(method, 0) > 0

    def record_success(self, method: str) -> None:
        self._consecutive[method] = 0
        self._skips_left[method] = 0

    def record_failure(self, method: str) -> None:
        count = self._consecutive.get(method, 0) + 1
        self._consecutive[method] = count
        if count >= self.failure_threshold:
            self._skips_left[method] = self.cooldown
            logger.warning(
                "circuit breaker opened for solver %r after %d "
                "consecutive failures (cooldown %d)",
                method,
                count,
                self.cooldown,
            )

    def state(self) -> Dict[str, Dict[str, int]]:
        """Snapshot for telemetry/tests."""
        return {
            method: {
                "consecutive_failures": self._consecutive.get(method, 0),
                "skips_left": self._skips_left.get(method, 0),
            }
            for method in set(self._consecutive) | set(self._skips_left)
        }


def _call_with_watchdog(
    solver: Solver,
    method: str,
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]],
    rng: RngLike,
    timeout_s: Optional[float],
) -> MUERPSolution:
    """Run *solver*, optionally under a wall-clock watchdog.

    With a timeout the solver runs on a daemon worker thread; on expiry
    the chain moves on immediately (the stray thread finishes in the
    background and its result is discarded — Python offers no safe
    preemption, so the watchdog bounds *our* latency, not its CPU use).
    """
    if timeout_s is None:
        return solver(network, users=users, rng=rng)
    executor = ThreadPoolExecutor(
        max_workers=1, thread_name_prefix=f"solve-{method}"
    )
    try:
        future = executor.submit(solver, network, users=users, rng=rng)
        try:
            return future.result(timeout=timeout_s)
        except _FutureTimeout:
            future.cancel()
            raise SolveTimeout(method, timeout_s) from None
    finally:
        executor.shutdown(wait=False)


def solve_robust(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    rng: RngLike = None,
    *,
    chain: Sequence[str] = DEFAULT_CHAIN,
    timeout_s: Optional[float] = None,
    verify: bool = True,
    rate_tolerance: float = 1e-9,
    breaker: Optional[CircuitBreaker] = None,
) -> RobustSolveResult:
    """Solve through a watchdog-guarded, verifying fallback chain.

    Each solver in *chain* runs in turn (skipping any with an open
    circuit breaker); its candidate solution is independently audited
    by the :class:`~repro.verify.verifier.SolutionVerifier`, and the
    first solver returning a *verified feasible* tree wins.  Timeouts,
    crashes, invariant violations and infeasible outcomes all fall
    through to the next solver and are recorded in the audit.

    Args:
        network: The quantum network.
        users: Users to entangle (default: all network users).
        rng: Random source forwarded to every solver in the chain.
        chain: Solver names to try, in order (e.g.
            ``("exact", "optimal", "conflict_free", "prim")``).
        timeout_s: Optional per-solver wall-clock watchdog in seconds.
        verify: Run the independent solution verifier on every
            candidate (strongly recommended; ``False`` only skips the
            re-check, the audit is still produced).
        rate_tolerance: Tolerance for the Eq. 1/2 rate recomputation.
        breaker: Optional :class:`CircuitBreaker` shared across calls.

    Returns:
        A :class:`RobustSolveResult`; its solution is infeasible (rate
        0) when the whole chain failed, with the audit saying why,
        per link.

    Raises:
        UnknownSolverError: When *chain* names an unregistered solver —
            a configuration error, never silently skipped.
        ValueError: From user-set resolution (bad user ids).
    """
    from repro.verify.verifier import SolutionVerifier

    chain = tuple(chain)
    if not chain:
        raise ValueError("solver chain must not be empty")
    for method in chain:
        if method not in SOLVERS:
            raise UnknownSolverError(method, SOLVERS)

    user_list = resolve_users(network, users)
    verifier = SolutionVerifier(rate_tolerance=rate_tolerance)
    audit = SolveAudit(chain=chain)

    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("solver.robust.calls")

    def _note_attempt(attempt: SolveAttempt, depth: int) -> None:
        """Record one chain link in the audit and the metrics registry."""
        audit.attempts.append(attempt)
        if metrics is None:
            return
        metrics.inc("solver.robust.attempts")
        metrics.inc(f"solver.robust.status.{attempt.status}")
        if depth > 0:
            metrics.inc("solver.robust.fallbacks")
        if attempt.status != BREAKER_OPEN:
            metrics.observe(
                "solver.robust.attempt_seconds", attempt.elapsed_s
            )

    with obs_tracing.span(
        "solve_robust", chain="->".join(chain), users=len(user_list)
    ) as root_span:
        for depth, method in enumerate(chain):
            if breaker is not None and not breaker.allow(method):
                _note_attempt(
                    SolveAttempt(
                        method=method,
                        status=BREAKER_OPEN,
                        detail="circuit breaker open; solver skipped",
                    ),
                    depth,
                )
                continue
            started = time.perf_counter()
            with obs_tracing.span("solve_attempt", method=method) as attempt_span:
                try:
                    solution = _call_with_watchdog(
                        SOLVERS[method],
                        method,
                        network,
                        user_list,
                        rng,
                        timeout_s,
                    )
                except SolveTimeout as exc:
                    elapsed = time.perf_counter() - started
                    _note_attempt(
                        SolveAttempt(
                            method=method,
                            status=TIMEOUT,
                            elapsed_s=elapsed,
                            detail=str(exc),
                        ),
                        depth,
                    )
                    if attempt_span is not None:
                        attempt_span.set_attr("status", TIMEOUT)
                    if breaker is not None:
                        breaker.record_failure(method)
                    continue
                except Exception as exc:  # noqa: BLE001 - fallback chain boundary
                    elapsed = time.perf_counter() - started
                    _note_attempt(
                        SolveAttempt(
                            method=method,
                            status=ERROR,
                            elapsed_s=elapsed,
                            detail=f"{type(exc).__name__}: {exc}",
                        ),
                        depth,
                    )
                    if attempt_span is not None:
                        attempt_span.set_attr("status", ERROR)
                    if breaker is not None:
                        breaker.record_failure(method)
                    logger.warning("solver %r crashed: %s", method, exc)
                    continue
                elapsed = time.perf_counter() - started

                if not solution.feasible:
                    _note_attempt(
                        SolveAttempt(
                            method=method,
                            status=INFEASIBLE,
                            elapsed_s=elapsed,
                            detail="solver reported no spanning tree",
                        ),
                        depth,
                    )
                    if attempt_span is not None:
                        attempt_span.set_attr("status", INFEASIBLE)
                    # Honest infeasibility is not a solver fault: no
                    # breaker hit.
                    continue

                if verify:
                    violations = verifier.audit(
                        network,
                        solution,
                        users=user_list,
                        enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
                    )
                    if violations:
                        _note_attempt(
                            SolveAttempt(
                                method=method,
                                status=INVALID,
                                elapsed_s=elapsed,
                                detail="; ".join(
                                    str(v) for v in violations[:3]
                                ),
                                violations=tuple(
                                    v.code for v in violations
                                ),
                            ),
                            depth,
                        )
                        if attempt_span is not None:
                            attempt_span.set_attr("status", INVALID)
                        if breaker is not None:
                            breaker.record_failure(method)
                        logger.warning(
                            "solver %r returned an invalid solution (%s)",
                            method,
                            ", ".join(v.code for v in violations),
                        )
                        continue

                _note_attempt(
                    SolveAttempt(
                        method=method, status=ACCEPTED, elapsed_s=elapsed
                    ),
                    depth,
                )
                if attempt_span is not None:
                    attempt_span.set_attr("status", ACCEPTED)
                audit.winner = method
                audit.verified = bool(verify)
                if breaker is not None:
                    breaker.record_success(method)
                if metrics is not None:
                    metrics.set_gauge("solver.robust.fallback_depth", depth)
                    if breaker is not None:
                        metrics.set_gauge(
                            "solver.robust.breaker_open_solvers",
                            sum(
                                1
                                for state in breaker.state().values()
                                if state["skips_left"] > 0
                            ),
                        )
                if root_span is not None:
                    root_span.set_attr("winner", method)
                return RobustSolveResult(solution=solution, audit=audit)

        if metrics is not None:
            metrics.inc("solver.robust.chain_exhausted")
        if root_span is not None:
            root_span.set_attr("winner", None)
        return RobustSolveResult(
            solution=infeasible_solution(user_list, "robust-chain"),
            audit=audit,
        )


def _optimal_adapter(network, users=None, rng=None):
    return solve_optimal(network, users)


def _conflict_free_adapter(network, users=None, rng=None):
    return solve_conflict_free(network, users, rng=rng)


def _prim_adapter(network, users=None, rng=None):
    return solve_prim(network, users, rng=rng)


register_solver("optimal", _optimal_adapter, display="Alg-2")
register_solver("conflict_free", _conflict_free_adapter, display="Alg-3")
register_solver("prim", _prim_adapter, display="Alg-4")

# Paper aliases.
register_solver("alg2", _optimal_adapter, display="Alg-2")
register_solver("alg3", _conflict_free_adapter, display="Alg-3")
register_solver("alg4", _prim_adapter, display="Alg-4")


def _exact_adapter(network, users=None, rng=None):
    from repro.core.exact import solve_exact

    return solve_exact(network, users)


register_solver("exact", _exact_adapter, display="Exact-B&B")


def _lp_rounding_adapter(network, users=None, rng=None):
    # Imported lazily: repro.bounds builds on core (ledger, verifier,
    # channel search), so a module-level import here would be a cycle.
    from repro.bounds.rounding import solve_lp_rounding

    return solve_lp_rounding(network, users, rng=rng)


register_solver("lp_rounding", _lp_rounding_adapter, display="LP-Round")
