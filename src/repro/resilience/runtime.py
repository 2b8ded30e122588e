"""Controller-level resilient execution: plan, run, re-route, degrade.

:func:`execute_with_resilience` drives one request's whole lifecycle
against a live fault timeline: it executes the plan slot by slot with
the fault-aware :class:`~repro.sim.engine.SlottedEntanglementSimulator`,
and whenever a *permanent* injected fault kills a planned fiber or
switch (signalled by :class:`TransientFaultError`), it folds the loss
into the controller's view and runs the shared recovery ladder
(:func:`repro.extensions.recovery.recover`): incremental repair, then a
full replan, then degradation to the largest user subset the surviving
channels still span.  Each candidate must pass the controller's
verifier audit against that damaged view before it is installed.  The
whole history — faults, retries, re-routes, degradations,
verifications — lands in a deterministic :class:`ResilienceReport`.

This is what :meth:`repro.controller.EntanglementController.serve_resilient`
delegates to; the ``repro resilience`` CLI subcommand builds on the
online-scheduler variant in :mod:`repro.sim.online`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, List, Optional, Tuple

import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_trace
from repro.core.problem import MUERPSolution
from repro.extensions.recovery import STEP_DEGRADE, STEP_REPAIR, recover
from repro.network.errors import DeadlineExceededError, TransientFaultError
from repro.resilience.faults import FaultInjector
from repro.resilience.report import (
    ABANDONED,
    DEADLINE_EXCEEDED,
    DEGRADED,
    SERVED,
    SHED,
    RequestDisposition,
    ResilienceReport,
)
from repro.resilience.retry import RetryPolicy
from repro.sim.engine import SlottedEntanglementSimulator, SlottedRunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.admission.control import AdmissionController

logger = logging.getLogger("repro.resilience.runtime")


@dataclass(frozen=True)
class ResilientServiceReport:
    """Outcome of one fault-exposed request lifecycle.

    Attributes:
        solution: The initial (pre-fault) plan.
        final_solution: The plan in force when the run ended (repaired
            or degraded version of the initial one, or the initial plan
            itself).
        runs: Telemetry of every execution segment (one per re-route).
        report: The accumulated resilience telemetry.
        served_users: Users actually entangled (empty when abandoned).
    """

    solution: MUERPSolution
    final_solution: MUERPSolution
    runs: Tuple[SlottedRunResult, ...]
    report: ResilienceReport
    served_users: Tuple[Hashable, ...]

    @property
    def entangled(self) -> bool:
        return bool(self.runs) and self.runs[-1].succeeded

    @property
    def degraded(self) -> bool:
        return self.entangled and set(self.served_users) < set(
            self.solution.users
        )

    @property
    def windows_used(self) -> int:
        return sum(run.slots_used for run in self.runs)


def execute_with_resilience(
    controller,
    users: Optional[Iterable[Hashable]] = None,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    max_slots: int = 100_000,
    deadline_slot: Optional[int] = None,
    request_name: str = "request",
    admission: Optional["AdmissionController"] = None,
) -> ResilientServiceReport:
    """Serve one request end to end under a fault timeline.

    Args:
        controller: An :class:`~repro.controller.EntanglementController`
            (duck-typed: needs ``plan``, ``absorb_failures``,
            ``network``, ``rng``, ``verifier``).
        users: The user group to entangle (default: all users).
        injector: Fault timeline; ``None`` degenerates to plain serve.
        retry_policy: Per-slot retry pacing for the protocol engine.
        max_slots: Total slot budget across all re-route segments.
        deadline_slot: Absolute slot by which entanglement must be
            reached; blowing it abandons the request with a
            ``deadline-exceeded`` disposition.
        request_name: Id used in the report's disposition table.
        admission: Optional
            :class:`~repro.admission.AdmissionController` consulted
            before any planning work; a refused request is closed
            with a ``shed`` disposition and never touches the solver.
    """
    with obs_trace.span(
        "resilience.execute", request=request_name
    ) as lifecycle_span:
        result = _execute_with_resilience(
            controller,
            users=users,
            injector=injector,
            retry_policy=retry_policy,
            max_slots=max_slots,
            deadline_slot=deadline_slot,
            request_name=request_name,
            admission=admission,
        )
        if lifecycle_span is not None:
            disposition = result.report.dispositions.get(request_name)
            if disposition is not None:
                lifecycle_span.set_attr("status", disposition.status)
                lifecycle_span.set_attr("reroutes", disposition.reroutes)
                lifecycle_span.set_attr("retries", disposition.retries)
        return result


def _execute_with_resilience(
    controller,
    users: Optional[Iterable[Hashable]] = None,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    max_slots: int = 100_000,
    deadline_slot: Optional[int] = None,
    request_name: str = "request",
    admission: Optional["AdmissionController"] = None,
) -> ResilientServiceReport:
    report = ResilienceReport()
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("resilience.runtime.requests")
    if injector is not None:
        injector.reset()

    request = None
    if admission is not None:
        from repro.sim.online import EntanglementRequest

        group = (
            tuple(sorted(users, key=repr))
            if users is not None
            else tuple(sorted(controller.network.user_ids, key=repr))
        )
        request = EntanglementRequest(
            name=request_name,
            users=group,
            arrival=0,
            deadline=deadline_slot,
        )
        decision = admission.decide(request, 0)
        if not decision.admitted:
            # No queue to wait in for a one-shot lifecycle: any
            # non-admit verdict is a shed, fully attributed.
            if decision.action == "throttle":
                admission.count_shed(decision.policy or "throttle")
            report.close_request(
                RequestDisposition(
                    name=request_name,
                    status=SHED,
                    reason=(
                        f"refused by admission policy {decision.policy!r}"
                        + (
                            f": {decision.reason}"
                            if decision.reason
                            else ""
                        )
                    ),
                    slot=0,
                )
            )
            placeholder = MUERPSolution(
                channels=(),
                users=frozenset(group),
                method="unplanned",
                feasible=False,
            )
            return ResilientServiceReport(
                solution=placeholder,
                final_solution=placeholder,
                runs=(),
                report=report,
                served_users=(),
            )

    initial = controller.plan(users)
    if not initial.feasible:
        report.close_request(
            RequestDisposition(
                name=request_name,
                status=ABANDONED,
                reason="initial plan infeasible",
                slot=0,
            )
        )
        if admission is not None and request is not None:
            admission.on_closed(request, 0)
        return ResilientServiceReport(
            solution=initial,
            final_solution=initial,
            runs=(),
            report=report,
            served_users=(),
        )

    current = initial
    runs: List[SlottedRunResult] = []
    slot_offset = 0
    handled_fibers: set = set()
    handled_switches: set = set()
    reroutes_here = 0
    retries_here = 0
    faulted = False

    def _account(segment: Optional[SlottedRunResult]) -> None:
        """Fold one execution segment (possibly cut short) into the run."""
        nonlocal slot_offset, retries_here
        if segment is not None:
            runs.append(segment)
            slot_offset += segment.slots_used
            retries_here += segment.retries_spent
            report.record_retries(segment.retries_spent)
        if injector is not None:
            report.faults_injected = injector.faults_injected
            report.faults_repaired = injector.faults_repaired

    def _finish(status: str, reason: str) -> ResilientServiceReport:
        served: Tuple[Hashable, ...] = ()
        if status in (SERVED, DEGRADED):
            served = tuple(sorted(current.users, key=repr))
        if metrics is not None:
            metrics.inc(f"resilience.runtime.dispositions.{status}")
            metrics.inc("resilience.runtime.retries", retries_here)
            metrics.inc("resilience.runtime.reroutes", reroutes_here)
        report.close_request(
            RequestDisposition(
                name=request_name,
                status=status,
                reason=reason,
                slot=slot_offset,
                retries=retries_here,
                reroutes=reroutes_here,
                served_users=served,
            )
        )
        if status == SERVED and faulted:
            report.record_recovery(request_name)
        if admission is not None and request is not None:
            admission.on_closed(request, slot_offset)
        return ResilientServiceReport(
            solution=initial,
            final_solution=current,
            runs=tuple(runs),
            report=report,
            served_users=served,
        )

    while slot_offset < max_slots:
        simulator = SlottedEntanglementSimulator(
            controller.network,
            current,
            rng=controller.rng,
            retry_policy=retry_policy,
            fault_injector=injector,
            start_slot=slot_offset,
        )
        try:
            run = simulator.run(
                max_slots=max_slots - slot_offset,
                deadline_slot=deadline_slot,
            )
        except TransientFaultError as fault:
            faulted = True
            _account(fault.partial)
            new_fibers = [
                f for f in fault.fibers if f not in handled_fibers
            ]
            new_switches = [
                s for s in fault.switches if s not in handled_switches
            ]
            handled_fibers.update(new_fibers)
            handled_switches.update(new_switches)
            for key in new_fibers:
                report.fault_log.append(
                    f"slot {slot_offset}: plan lost fiber {key!r}"
                )
            for switch in new_switches:
                report.fault_log.append(
                    f"slot {slot_offset}: plan lost switch {switch!r}"
                )
            controller.absorb_failures(new_fibers, new_switches)
            step, fixed, rep = recover(
                controller.network,
                current,
                new_fibers,
                new_switches,
                replan=lambda: controller.plan(sorted(current.users, key=repr)),
                allow_degradation=True,
                verifier=controller.verifier,
                report=report,
                name=request_name,
            )
            if not step:
                return _finish(
                    ABANDONED,
                    f"fault at slot {slot_offset} unrepairable; no feasible "
                    "replan or >=2-user subset",
                )
            current = fixed
            if step == STEP_DEGRADE:
                if metrics is not None:
                    metrics.inc("resilience.runtime.degradations")
                report.record_degradation(
                    request_name,
                    f"slot {slot_offset}: continuing with "
                    f"{len(current.users)} of {len(initial.users)} users",
                )
                continue
            reroutes_here += 1
            how = (
                f"incremental repair ({len(rep.new_channels)} new channels)"
                if step == STEP_REPAIR
                else "full replan after unrepairable fault"
            )
            report.record_reroute(request_name, f"slot {slot_offset}: {how}")
            continue
        except DeadlineExceededError as exc:
            _account(exc.partial)
            return _finish(
                DEADLINE_EXCEEDED,
                f"deadline slot {exc.deadline} passed before entanglement",
            )

        _account(run)
        if run.succeeded and set(current.users) < set(initial.users):
            return _finish(
                DEGRADED,
                f"degraded to {len(current.users)}/{len(initial.users)} users",
            )
        if run.succeeded:
            return _finish(SERVED, "")
        if run.abort_reason == "retry-budget-exhausted":
            return _finish(
                ABANDONED,
                f"retry policy exhausted at slot {slot_offset}",
            )
        # max-slots within the segment: global budget is spent.
        break

    return _finish(
        ABANDONED, f"slot budget {max_slots} exhausted without entanglement"
    )
