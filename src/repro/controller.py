"""The central controller of Sec. II-B, as a facade.

The paper describes the operational loop: "a central node collects
entanglement requests from users and, using all available network
information like topology and switches' capacity, formulates
entanglement routes in an offline process … the network executes the
entanglement process."  :class:`EntanglementController` packages that
loop over the library's layers:

* **plan** — route with the configured algorithm, post-optimize with
  local search, and validate (an invalid plan raises — planner bugs
  must never reach the network);
* **execute** — drive the discrete-event simulator until the tree
  succeeds, returning protocol telemetry;
* **handle_failure** — incremental repair after fiber/switch loss, with
  a from-scratch replan fallback when repair fails, both audited;
* **serve** — the whole request lifecycle in one call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, List, Optional, Sequence, Tuple

import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_trace
from repro.core.localsearch import improve_solution
from repro.core.problem import MUERPSolution
from repro.core.registry import (
    CAPACITY_EXEMPT_METHODS,
    CircuitBreaker,
    SolveAudit,
    solve,
    solve_robust,
)
from repro.core.tree import ValidationReport, validate_solution
from repro.extensions.recovery import apply_failures, recover
from repro.network.graph import QuantumNetwork
from repro.sim.engine import SlottedEntanglementSimulator, SlottedRunResult
from repro.utils.rng import RngLike, ensure_rng
from repro.verify.verifier import SolutionVerifier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.admission.control import AdmissionController
    from repro.resilience.faults import FaultInjector
    from repro.resilience.retry import RetryPolicy
    from repro.resilience.runtime import ResilientServiceReport

logger = logging.getLogger("repro.controller")


class PlanningError(RuntimeError):
    """The planner produced an invalid solution (library bug guard)."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__(f"invalid plan: {report}")
        self.report = report


@dataclass(frozen=True)
class ServiceReport:
    """Outcome of one full request lifecycle (:meth:`serve`)."""

    solution: MUERPSolution
    run: Optional[SlottedRunResult]

    @property
    def entangled(self) -> bool:
        return self.run is not None and self.run.succeeded

    @property
    def windows_used(self) -> int:
        return self.run.slots_used if self.run is not None else 0


class EntanglementController:
    """Offline planner + protocol driver over one quantum network.

    Args:
        network: The controlled network (the controller tracks failures
            applied through :meth:`handle_failure` on an internal copy).
        method: Routing algorithm name from the solver registry
            (default Algorithm 3).
        use_local_search: Post-optimize plans with the hill climber.
        rng: Random source shared by planning and protocol execution.
        verify: Plan through the hardened
            :func:`~repro.core.registry.solve_robust` path: every
            candidate is independently re-checked by the
            :class:`~repro.verify.verifier.SolutionVerifier` and the
            attempt history lands in :attr:`last_audit`.  Default on.
        fallback_chain: Solver names tried after *method* when it times
            out, crashes or emits an invalid plan (only consulted when
            *verify* is on).  Default: no fallbacks — the configured
            method solves or the plan is rejected, exactly the classic
            behaviour.
        solve_timeout_s: Optional per-solver wall-clock watchdog for
            the verified path.
    """

    def __init__(
        self,
        network: QuantumNetwork,
        method: str = "conflict_free",
        use_local_search: bool = True,
        rng: RngLike = None,
        verify: bool = True,
        fallback_chain: Optional[Sequence[str]] = None,
        solve_timeout_s: Optional[float] = None,
    ) -> None:
        self._network = network.copy()
        self.method = method
        self.use_local_search = use_local_search
        self.rng = ensure_rng(rng)
        self.verify = verify
        self.fallback_chain: Tuple[str, ...] = (method,) + tuple(
            m for m in (fallback_chain or ()) if m != method
        )
        self.solve_timeout_s = solve_timeout_s
        #: Audit trail of the most recent verified planning call.
        self.last_audit: Optional[SolveAudit] = None
        self._breaker = CircuitBreaker()

    @property
    def network(self) -> QuantumNetwork:
        """The controller's current view of the network (post-failures)."""
        return self._network

    @property
    def verifier(self) -> Optional[SolutionVerifier]:
        """Audit for recovered trees (capacity unless the method is exempt)."""
        if not self.verify:
            return None
        return SolutionVerifier(
            enforce_capacity=self.method not in CAPACITY_EXEMPT_METHODS
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        users: Optional[Iterable[Hashable]] = None,
        verify: Optional[bool] = None,
    ) -> MUERPSolution:
        """Formulate a validated entanglement route for *users*.

        With verification on (the default) the request runs through the
        hardened :func:`~repro.core.registry.solve_robust` chain — the
        configured method plus any :attr:`fallback_chain` entries, each
        watchdog-guarded and independently verified — and the attempt
        history is kept in :attr:`last_audit`.

        Returns an infeasible solution (rate 0) when the request cannot
        be served; raises :class:`PlanningError` if the solver(s) only
        ever emit structurally invalid plans.
        """
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("controller.plan.calls")
        with obs_trace.span(
            "controller.plan", method=self.method
        ) as plan_span:
            solution = self._plan_impl(users, verify)
            if plan_span is not None:
                plan_span.set_attr("feasible", solution.feasible)
            if metrics is not None and not solution.feasible:
                metrics.inc("controller.plan.infeasible")
            return solution

    def _plan_impl(
        self,
        users: Optional[Iterable[Hashable]],
        verify: Optional[bool],
    ) -> MUERPSolution:
        use_verify = self.verify if verify is None else verify
        planned_method = self.method
        if use_verify:
            result = solve_robust(
                self._network,
                users=users,
                rng=self.rng,
                chain=self.fallback_chain,
                timeout_s=self.solve_timeout_s,
                breaker=self._breaker,
            )
            self.last_audit = result.audit
            solution = result.solution
            if result.audit.winner is not None:
                planned_method = result.audit.winner
            elif any(
                a.status == "invalid" for a in result.audit.attempts
            ):
                # The whole chain failed and at least one solver emitted
                # a structurally broken plan: that is a library bug, not
                # a legitimate infeasible instance.
                report = ValidationReport()
                for attempt in result.audit.attempts:
                    if attempt.status != "invalid":
                        continue
                    for code in attempt.violations:
                        report.add(
                            f"solver {attempt.method!r} violated "
                            f"invariant {code!r}"
                        )
                    if attempt.detail:
                        report.add(f"{attempt.method}: {attempt.detail}")
                raise PlanningError(report)
        else:
            solution = solve(
                self.method, self._network, users=users, rng=self.rng
            )
        if solution.feasible and self.use_local_search:
            solution = improve_solution(self._network, solution)
        report = validate_solution(
            self._network,
            solution,
            enforce_capacity=planned_method not in CAPACITY_EXEMPT_METHODS,
        )
        if not report.ok:
            raise PlanningError(report)
        return solution

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, solution: MUERPSolution, max_slots: int = 1_000_000
    ) -> SlottedRunResult:
        """Run the synchronized protocol until the tree succeeds."""
        simulator = SlottedEntanglementSimulator(
            self._network, solution, rng=self.rng
        )
        return simulator.run(max_slots=max_slots)

    def serve(
        self,
        users: Optional[Iterable[Hashable]] = None,
        max_slots: int = 1_000_000,
    ) -> ServiceReport:
        """Plan and execute one request end to end."""
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("controller.serve.requests")
        with obs_trace.span(
            "controller.serve", method=self.method
        ) as serve_span:
            solution = self.plan(users)
            if not solution.feasible:
                if serve_span is not None:
                    serve_span.set_attr("outcome", "infeasible")
                return ServiceReport(solution=solution, run=None)
            run = self.execute(solution, max_slots=max_slots)
            if metrics is not None and run.succeeded:
                metrics.inc("controller.serve.entangled")
            if serve_span is not None:
                serve_span.set_attr(
                    "outcome", "entangled" if run.succeeded else "failed"
                )
                serve_span.set_attr("slots_used", run.slots_used)
            return ServiceReport(solution=solution, run=run)

    def serve_resilient(
        self,
        users: Optional[Iterable[Hashable]] = None,
        injector: Optional["FaultInjector"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        max_slots: int = 100_000,
        deadline_slot: Optional[int] = None,
        request_name: str = "request",
        admission: Optional["AdmissionController"] = None,
    ) -> "ResilientServiceReport":
        """Serve one request under a live fault timeline.

        Like :meth:`serve`, but the protocol runs against *injector*'s
        fault schedule with *retry_policy* pacing failed attempts:
        permanent faults on the plan trigger incremental repair (then a
        full replan, then graceful degradation to the largest user
        subset), and the full history lands in the returned report's
        :class:`~repro.resilience.report.ResilienceReport`.

        *admission* puts an
        :class:`~repro.admission.AdmissionController` in front of the
        lifecycle: a refused request is closed with a ``shed``
        disposition before any planning work is spent on it.
        """
        from repro.resilience.runtime import execute_with_resilience

        return execute_with_resilience(
            self,
            users=users,
            injector=injector,
            retry_policy=retry_policy,
            max_slots=max_slots,
            deadline_slot=deadline_slot,
            request_name=request_name,
            admission=admission,
        )

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def absorb_failures(
        self,
        failed_fibers: Sequence[Tuple[Hashable, Hashable]] = (),
        failed_switches: Sequence[Hashable] = (),
    ) -> None:
        """Fold failures into the controller's network view.

        Subsequent :meth:`plan` calls route around the dead elements.
        """
        logger.info(
            "absorbing failures: %d fibers, %d switches",
            len(tuple(failed_fibers)),
            len(tuple(failed_switches)),
        )
        self._network = apply_failures(
            self._network, failed_fibers, failed_switches
        )

    def handle_failure(
        self,
        solution: MUERPSolution,
        failed_fibers: Sequence[Tuple[Hashable, Hashable]] = (),
        failed_switches: Sequence[Hashable] = (),
    ) -> MUERPSolution:
        """Absorb failures into the network view and fix *solution*.

        Runs :func:`~repro.extensions.recovery.recover` without its
        degrade step: incremental repair (keeps surviving channels and
        their reservations), else a full replan on the damaged network,
        each audited by :attr:`verifier`.  Returns the fix, or an
        infeasible solution when the users are no longer connectable.
        """
        self.absorb_failures(failed_fibers, failed_switches)
        _, fixed, _ = recover(
            self._network,
            solution,
            failed_fibers,
            failed_switches,
            replan=lambda: self.plan(sorted(solution.users, key=repr)),
            verifier=self.verifier,
        )
        return fixed
