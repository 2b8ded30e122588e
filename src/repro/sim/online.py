"""Online entanglement-request scheduling over a shared network.

The paper plans routes *offline* for one user set (Sec. II-B).  A
deployed quantum Internet serves a stream of requests: entanglement
groups arrive over time, hold their switch qubits while the application
runs, and release them on departure.  This module adds that operational
layer on top of the routing algorithms:

* :class:`EntanglementRequest` — a user group with an arrival slot, a
  holding time, and (optionally) an absolute service deadline;
* :class:`OnlineScheduler` — slot-driven loss system: on each slot it
  releases expired reservations, then tries to route that slot's
  arrivals with the current residual capacity (optionally retrying
  blocked requests for a bounded wait).  Blocked-and-expired requests
  are lost;
* :class:`OnlineResult` — acceptance ratio, rates, and qubit-utilization
  telemetry, the metrics an operator dimensioning switch memory cares
  about.

Every run goes through one loop.  Reservations are taken and returned
through a :class:`~repro.core.ledger.CapacityLedger`, so an overbooking
bug raises instead of driving a switch's budget negative, and every
request ends with exactly one disposition in the run's
:class:`~repro.resilience.report.ResilienceReport`.  The scheduler's
optional inputs switch further features on:

* a :class:`~repro.resilience.faults.FaultInjector` fires faults
  *mid-service*; reservations whose tree loses a fiber or switch are
  re-routed in place by the shared recovery ladder
  (:func:`repro.extensions.recovery.recover`): capacity-aware
  incremental repair keeps their surviving channels' qubits reserved,
  and when no full repair exists the scheduler **degrades gracefully**
  to the largest user subset still spanned by the surviving channels.
  Both are audited against the damaged view before they are installed;
* a :class:`~repro.resilience.retry.RetryPolicy` paces blocked requests
  (backoff instead of hammering every slot), and a request ``deadline``
  abandons them once it passes;
* an :class:`~repro.admission.AdmissionController` throttles, queues,
  sheds, degrades or hedges requests before any qubits are reserved;
* a :class:`~repro.tenancy.replicas.ReplicationPolicy` serves each
  group on up to *k* redundant trees with mid-service failover.

With none of them set, a blocked request is retried every slot until
``arrival + max_wait`` and then rejected.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_trace
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityError, CapacityLedger
from repro.core.prim_based import solve_prim
from repro.core.problem import MUERPSolution
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.admission.control import AdmissionController
    from repro.resilience.faults import FaultInjector
    from repro.resilience.report import ResilienceReport
    from repro.resilience.retry import RetryPolicy
    from repro.tenancy.replicas import ReplicaSet, ReplicationPolicy

logger = logging.getLogger("repro.sim.online")


@dataclass(frozen=True)
class EntanglementRequest:
    """One entanglement request in the arrival stream.

    Attributes:
        name: Unique request id.
        users: The quantum users to entangle (≥ 2).
        arrival: Slot index at which the request arrives.
        hold: Number of slots the reservation is held once routed.
        max_wait: Slots the request may wait when blocked (0 = pure
            loss system).
        deadline: Optional absolute slot by which service must have
            *started*; supersedes ``arrival + max_wait`` as the give-up
            point when set.  Must be ``>= arrival``.
        tenant: Optional tenant/account label; per-tenant admission
            limiters key on it (``None`` = the global bucket).
    """

    name: str
    users: Tuple[Hashable, ...]
    arrival: int
    hold: int = 1
    max_wait: int = 0
    deadline: Optional[int] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.users) < 2:
            raise ValueError(f"request {self.name!r} needs >= 2 users")
        if len(set(self.users)) != len(self.users):
            raise ValueError(f"request {self.name!r} has duplicate users")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.hold < 1:
            raise ValueError("hold must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.deadline is not None:
            if self.deadline < 0:
                raise ValueError(
                    f"request {self.name!r}: deadline must be >= 0"
                )
            if self.deadline < self.arrival:
                raise ValueError(
                    f"request {self.name!r}: deadline {self.deadline} "
                    f"precedes arrival {self.arrival}"
                )

    @property
    def last_start_slot(self) -> int:
        """Latest slot at which service may still start."""
        if self.deadline is not None:
            return self.deadline
        return self.arrival + self.max_wait


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request.

    ``accepted`` means the request ended *served* (possibly degraded to
    a user subset); a request that was admitted but abandoned after a
    mid-service fault counts as not accepted, with the attribution in
    the run's resilience report.
    """

    request: EntanglementRequest
    accepted: bool
    solution: Optional[MUERPSolution]
    start_slot: Optional[int]
    release_slot: Optional[int]
    disposition: str = "served"
    degraded: bool = False
    served_users: Tuple[Hashable, ...] = ()
    reroutes: int = 0
    #: Mid-service standby promotions (k-redundant serving only).
    failovers: int = 0

    @property
    def waited(self) -> int:
        if self.start_slot is None:
            return 0
        return self.start_slot - self.request.arrival


@dataclass(frozen=True)
class OnlineResult:
    """Aggregate outcome of an online run."""

    outcomes: Tuple[RequestOutcome, ...]
    slots_simulated: int
    peak_qubit_usage: Dict[Hashable, int]
    resilience: Optional["ResilienceReport"] = None
    #: Admission-control telemetry (populated only when the scheduler
    #: ran with an :class:`~repro.admission.AdmissionController`).
    admission: Optional[Dict[str, object]] = None

    @property
    def n_accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.accepted)

    @property
    def n_degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    @property
    def n_shed(self) -> int:
        return sum(1 for o in self.outcomes if o.disposition == "shed")

    @property
    def acceptance_ratio(self) -> float:
        # An empty stream has no accepted requests: 0.0, by definition,
        # rather than a vacuous 1.0 or a ZeroDivisionError.
        if not self.outcomes:
            return 0.0
        return self.n_accepted / len(self.outcomes)

    @property
    def mean_accepted_rate(self) -> float:
        rates = [
            o.solution.rate
            for o in self.outcomes
            if o.accepted and o.solution is not None
        ]
        if not rates:
            return 0.0
        return sum(rates) / len(rates)

    def outcome_for(self, name: str) -> RequestOutcome:
        for outcome in self.outcomes:
            if outcome.request.name == name:
                return outcome
        raise KeyError(f"no outcome for request {name!r}")

    def overbooked_switches(self, network: QuantumNetwork) -> List[Hashable]:
        """Switches whose peak usage exceeded their budget (must be [])."""
        return [
            switch
            for switch, peak in sorted(
                self.peak_qubit_usage.items(), key=repr
            )
            if peak > (network.qubits_of(switch) or 0)
        ]

    def unattributed(self) -> List[str]:
        """Requests without exactly one disposition (must be []).

        Every run records a :class:`ResilienceReport`; a request with
        an outcome but no disposition, or a disposition for a request
        that has no outcome, is unattributed.
        """
        names = {o.request.name for o in self.outcomes}
        return sorted(names.symmetric_difference(self.resilience.dispositions))


@dataclass
class _Reservation:
    """Mutable in-flight service record."""

    request: EntanglementRequest
    solution: MUERPSolution
    usage: Dict[Hashable, int]
    start_slot: int
    release_slot: int
    retries: int = 0
    reroutes: int = 0
    degraded: bool = False
    hit_by_fault: bool = False
    #: Live replica set under k-redundant serving (``usage`` then
    #: covers *all* replicas, and ``solution`` mirrors the serving one).
    replicas: Optional["ReplicaSet"] = None
    failovers: int = 0


@dataclass
class _Waiter:
    """A blocked request waiting for its next admission attempt."""

    request: EntanglementRequest
    next_slot: int
    attempts: int = 0
    retries: int = 0


class OnlineScheduler:
    """Slot-driven online admission and routing.

    Args:
        network: The shared quantum network.
        method: Per-request solver: ``"prim"`` (default) or
            ``"conflict_free"``.
        rng: Random source forwarded to the solver.
        fault_injector: Optional
            :class:`~repro.resilience.faults.FaultInjector` whose faults
            fire mid-service; broken trees are repaired in place or
            degraded to a surviving user subset.
        retry_policy: Optional
            :class:`~repro.resilience.retry.RetryPolicy` pacing blocked
            requests' re-admission attempts.
        allow_degradation: Serve the largest surviving user subset when
            a mid-service fault makes a full repair impossible (instead
            of abandoning the whole group).
        verify: Independently re-check repaired and degraded trees with
            the :class:`~repro.verify.verifier.SolutionVerifier` before
            they go back into service; a tree that fails verification is
            treated as unrepairable (checks are counted in the run's
            resilience report).
        admission: Optional
            :class:`~repro.admission.AdmissionController` consulted
            before any qubits are reserved: requests can be throttled
            into a bounded shed queue, shed outright (each with an
            attributable ``shed`` disposition), served degraded under
            brownout, or hedged with alternate solvers near their
            deadline.  ``None`` preserves the historical
            admit-everything behaviour byte for byte.
        replication: Optional
            :class:`~repro.tenancy.replicas.ReplicationPolicy`; each
            admitted group is served by up to *k* redundant trees
            reserved through the shared ledger.  A mid-service fault
            that breaks only some replicas **fails over** to a
            surviving standby in place; the structural repair /
            degradation ladder is invoked only once every replica is
            dead.  ``None`` keeps single-tree serving byte for byte.
    """

    def __init__(
        self,
        network: QuantumNetwork,
        method: str = "prim",
        rng: RngLike = None,
        fault_injector: Optional["FaultInjector"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        allow_degradation: bool = True,
        verify: bool = True,
        admission: Optional["AdmissionController"] = None,
        replication: Optional["ReplicationPolicy"] = None,
    ) -> None:
        if method not in ("prim", "conflict_free"):
            raise ValueError(f"unsupported method {method!r}")
        self.network = network
        self.method = method
        self.rng = ensure_rng(rng)
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.allow_degradation = allow_degradation
        self.verify = verify
        self.admission = admission
        self.replication = replication

    def run(self, requests: Sequence[EntanglementRequest]) -> OnlineResult:
        """Simulate the whole arrival stream; returns the telemetry."""
        names = [r.name for r in requests]
        if len(set(names)) != len(names):
            raise ValueError("request names must be unique")
        with obs_trace.span(
            "online.run", method=self.method, requests=len(requests)
        ):
            return self._run(requests)

    # ------------------------------------------------------------------
    # The run loop — releases, faults, admission, routing, retries.
    # ------------------------------------------------------------------
    def _run(
        self, requests: Sequence[EntanglementRequest]
    ) -> OnlineResult:
        from repro.admission.backpressure import (
            TIER_DEGRADED,
            TIER_FULL,
            TIER_SHED,
        )
        from repro.extensions.recovery import (
            STEP_DEGRADE,
            STEP_REPAIR,
            apply_failures,
            channel_broken,
            recover,
        )
        from repro.resilience import report as report_mod
        from repro.resilience.faults import _FIBER_KINDS, FaultKind
        from repro.resilience.report import (
            RequestDisposition,
            ResilienceReport,
        )
        from repro.tenancy.slo import tenant_label

        replication = self.replication
        plan_replicas = None
        if replication is not None and replication.k > 1:
            from repro.tenancy.replicas import (
                EXHAUSTED,
                FAILOVER,
                INTACT,
                plan_replica_set,
            )

            plan_replicas = plan_replica_set

        metrics = obs_metrics.active()
        injector = self.fault_injector
        if injector is not None:
            injector.reset()
        admission = self.admission
        if admission is not None:
            admission.reset()
        report = ResilienceReport()

        base = self.network
        # The transactional capacity account: reserve on admission,
        # release on completion; the repair path swaps reservations
        # inside a transaction so an exception can never leak qubits.
        ledger = CapacityLedger.from_network(base)
        verifier = None
        if self.verify:
            from repro.verify.verifier import SolutionVerifier

            verifier = SolutionVerifier()

        reservations: List[_Reservation] = []
        waiting: List[_Waiter] = []
        outcomes: Dict[str, RequestOutcome] = {}

        by_arrival: Dict[int, List[EntanglementRequest]] = {}
        for request in requests:
            by_arrival.setdefault(request.arrival, []).append(request)
        if not requests:
            return OnlineResult(
                (),
                0,
                ledger.peak_usage(),
                report,
                admission.stats() if admission is not None else None,
            )
        horizon = max(r.last_start_slot for r in requests) + 1
        if injector is not None:
            horizon = max(horizon, injector.schedule.last_slot)

        def _close(
            request: EntanglementRequest,
            status: str,
            reason: str,
            slot: int,
            retries: int = 0,
            res: Optional[_Reservation] = None,
        ) -> None:
            """Record *request*'s one outcome and disposition.

            *res* is the request's reservation once it has started:
            served (``SERVED``/``DEGRADED``) or abandoned mid-service.
            """
            served = status in (report_mod.SERVED, report_mod.DEGRADED)
            served_users: Tuple[Hashable, ...] = ()
            reroutes = failovers = 0
            if res is not None:
                retries = res.retries
                reroutes = res.reroutes
                failovers = res.failovers
                if served:
                    served_users = tuple(sorted(res.solution.users, key=repr))
            outcomes[request.name] = RequestOutcome(
                request=request,
                accepted=served,
                solution=res.solution if served else None,
                start_slot=None if res is None else res.start_slot,
                release_slot=res.release_slot if served else None,
                disposition=status,
                degraded=status == report_mod.DEGRADED,
                served_users=served_users,
                reroutes=reroutes,
                failovers=failovers,
            )
            report.close_request(
                RequestDisposition(
                    name=request.name,
                    status=status,
                    reason=reason,
                    slot=slot,
                    retries=retries,
                    reroutes=reroutes,
                    served_users=served_users,
                    tenant=request.tenant or "",
                    failovers=failovers,
                )
            )
            if metrics is not None:
                metrics.inc(f"sim.online.dispositions.{status}")
                if request.tenant:
                    metrics.inc(
                        f"sim.online.tenant.{request.tenant}"
                        f".dispositions.{status}"
                    )
            if admission is not None:
                admission.on_closed(request, slot, status)
            if not served:
                logger.info(
                    "request %s lost at slot %d: %s (%s)",
                    request.name,
                    slot,
                    status,
                    reason,
                )
            elif res.hit_by_fault and status == report_mod.SERVED:
                report.record_recovery(request.name)

        def _timed_out(request: EntanglementRequest, otherwise: str) -> str:
            """Status of a request whose time ran out before service."""
            if request.deadline is not None:
                return report_mod.DEADLINE_EXCEEDED
            return otherwise

        def _swap(res: _Reservation, solution: MUERPSolution) -> None:
            """Move *res* onto *solution*'s qubits in one transaction.

            An exception between release and reserve can never leak.
            """
            usage = solution.switch_usage()
            with ledger.transaction():
                ledger.release(res.usage)
                ledger.reserve(usage)
            res.solution = solution
            res.usage = usage

        damaged = base
        active_sig: Tuple[frozenset, frozenset] = (frozenset(), frozenset())
        slot = 0
        while True:
            end = horizon
            if reservations:
                end = max(end, max(r.release_slot for r in reservations))
            if waiting:
                end = max(end, max(w.next_slot for w in waiting))
            if slot > end:
                break

            # 0. Advance the fault clock; refresh the damaged view.
            fired = []
            if injector is not None:
                repaired_before = injector.faults_repaired
                fired = injector.advance(slot)
                for event in fired:
                    report.record_fault(event.describe())
                report.record_repairs(
                    injector.faults_repaired - repaired_before
                )
                sig = (
                    frozenset(injector.active_fiber_cuts),
                    frozenset(injector.active_dark_switches),
                )
                if sig != active_sig:
                    active_sig = sig
                    damaged = (
                        apply_failures(base, sig[0], sig[1])
                        if (sig[0] or sig[1])
                        else base
                    )

            # 1. Release expired reservations (service completed).
            still: List[_Reservation] = []
            for res in reservations:
                if res.release_slot <= slot:
                    ledger.release(res.usage)
                    if res.degraded:
                        status = report_mod.DEGRADED
                        reason = (
                            f"degraded to {len(res.solution.users)}/"
                            f"{len(res.request.users)} users"
                        )
                    else:
                        status, reason = report_mod.SERVED, ""
                    _close(res.request, status, reason, slot, res=res)
                else:
                    still.append(res)
            reservations = still

            # 2. Mid-service faults: repair, degrade, or abandon.
            #
            # Tree-disjoint pre-check (the incremental fast path): only
            # elements that fired *this jump* and are *still active* can
            # newly break a serving tree — every surviving reservation
            # was routed, repaired, or degraded on a damaged view that
            # already excluded the previously-active elements.  The
            # intersection with the active sets matters: a transient
            # that fires and expires within one clock jump shows up in
            # ``fired`` but is back up, so it must not trigger repairs.
            fired_cuts: Set[Tuple[Hashable, Hashable]] = set()
            fired_darks: Set[Hashable] = set()
            if injector is not None and fired:
                cuts, darks = active_sig
                fired_cuts = {
                    e.target for e in fired if e.kind in _FIBER_KINDS
                } & cuts
                fired_darks = {
                    e.target
                    for e in fired
                    if e.kind is FaultKind.SWITCH_DARK
                } & darks
            if fired_cuts or fired_darks:
                cuts, darks = active_sig
                surviving: List[_Reservation] = []
                for res in reservations:
                    if res.replicas is not None:
                        # k-redundant serving: absorb the fault at the
                        # replica layer first.  Only when every replica
                        # is dead does the request fall through to the
                        # structural repair ladder below.
                        event, released = res.replicas.handle_faults(
                            fired_cuts, fired_darks
                        )
                        if released:
                            with ledger.transaction():
                                for extra_usage in released:
                                    ledger.release(extra_usage)
                        if event == INTACT:
                            if metrics is not None:
                                metrics.inc(
                                    "repro.incremental.online.disjoint_noop"
                                )
                            surviving.append(res)
                            continue
                        res.hit_by_fault = True
                        res.usage = res.replicas.total_usage()
                        if event != EXHAUSTED:
                            res.solution = res.replicas.serving_solution
                            if event == FAILOVER:
                                res.failovers += 1
                                if metrics is not None:
                                    metrics.inc("sim.online.failovers")
                                    if res.request.tenant:
                                        metrics.inc(
                                            "sim.online.tenant."
                                            f"{res.request.tenant}"
                                            ".failovers"
                                        )
                                if (
                                    admission is not None
                                    and admission.slo is not None
                                ):
                                    admission.slo.record_failover(
                                        tenant_label(res.request)
                                    )
                                report.record_failover(
                                    res.request.name,
                                    f"slot {slot}: promoted standby "
                                    f"({res.replicas.k} replicas left)",
                                )
                            elif metrics is not None:
                                metrics.inc("sim.online.replicas_pruned")
                            surviving.append(res)
                            continue
                        # All replicas dead: collapse to a plain
                        # single-tree reservation and escalate.
                        res.replicas = None
                        if metrics is not None:
                            metrics.inc("sim.online.replicas_exhausted")
                    if not any(
                        channel_broken(c, fired_cuts, fired_darks)
                        for c in res.solution.channels
                    ):
                        if metrics is not None:
                            metrics.inc(
                                "repro.incremental.online.disjoint_noop"
                            )
                        surviving.append(res)
                        continue
                    res.hit_by_fault = True
                    # Capacity-aware repair: the reservation's own
                    # qubits plus the global residual are available.
                    avail = ledger.fork()
                    avail.release(res.usage)
                    step, fixed, rep = recover(
                        # Step 0 rebuilt the damaged view for this fault
                        # signature; every broken reservation reuses it.
                        damaged,
                        res.solution,
                        cuts,
                        darks,
                        residual=avail,
                        allow_degradation=self.allow_degradation,
                        verifier=verifier,
                        report=report,
                        name=res.request.name,
                    )
                    if step:
                        _swap(res, fixed)
                        surviving.append(res)
                    if step == STEP_REPAIR:
                        res.reroutes += 1
                        if metrics is not None:
                            metrics.inc("sim.online.repairs")
                        report.record_reroute(
                            res.request.name,
                            f"slot {slot}: "
                            f"{len(rep.broken_channels)} broken channels "
                            f"re-routed",
                        )
                        continue
                    if step == STEP_DEGRADE:
                        res.degraded = True
                        if metrics is not None:
                            metrics.inc("sim.online.degradations")
                        report.record_degradation(
                            res.request.name,
                            f"slot {slot}: serving "
                            f"{len(fixed.users)}/{len(res.request.users)} "
                            f"users after unrepairable fault",
                        )
                        continue
                    # Abandon: no repair, no viable subset.
                    ledger.release(res.usage)
                    detail_parts = []
                    if cuts:
                        detail_parts.append(
                            f"cut fibers {sorted(cuts, key=repr)!r}"
                        )
                    if darks:
                        detail_parts.append(
                            f"dark switches {sorted(darks, key=repr)!r}"
                        )
                    _close(
                        res.request,
                        report_mod.ABANDONED,
                        f"mid-service fault at slot {slot} "
                        f"({' and '.join(detail_parts)}); repair infeasible "
                        "and no >=2-user subset survives",
                        slot,
                        res=res,
                    )
                reservations = surviving

            # 2b. Admission housekeeping: with releases and fault
            # handling settled, expire overdue queue entries and refresh
            # the brownout tier from the fresh load signal.
            tier = TIER_FULL
            if admission is not None:
                aqueue = admission.queue
                if aqueue is not None:
                    for entry in aqueue.expired(slot):
                        admission.count_expired()
                        admission.observe_queue_wait(
                            entry.request, slot - entry.enqueued_slot
                        )
                        _close(
                            entry.request,
                            _timed_out(entry.request, report_mod.SHED),
                            "expired in admission queue after "
                            f"{slot - entry.enqueued_slot} slots without "
                            "a limiter slot",
                            slot,
                        )
                tier = admission.begin_slot(slot, ledger)

            # 3. Admission: queued backlog, new arrivals, due waiters.
            candidates: List[_Waiter] = []
            if (
                admission is not None
                and admission.queue is not None
                and tier != TIER_SHED
            ):
                # Drain the backlog in policy order while the limiter
                # chain has headroom; the first throttle ends the drain
                # (no later entry may jump the priority order).
                for entry in admission.queue.drain_order():
                    decision = admission.decide(entry.request, slot)
                    if not decision.admitted:
                        break
                    admission.queue.remove(entry)
                    admission.observe_queue_wait(
                        entry.request, slot - entry.enqueued_slot
                    )
                    candidates.append(
                        _Waiter(request=entry.request, next_slot=slot)
                    )
            for request in by_arrival.get(slot, []):
                if admission is None:
                    candidates.append(
                        _Waiter(request=request, next_slot=slot)
                    )
                    continue
                admission.on_arrival(request, slot)
                if tier == TIER_SHED:
                    # SLO guard: arrivals within their tenant's
                    # contracted rate are spared the wholesale brownout
                    # refusal and still face the limiter chain — a
                    # compliant tenant is never starved by a flooding
                    # neighbour.
                    slo = admission.slo
                    if slo is not None and slo.within_guarantee(
                        tenant_label(request), slot
                    ):
                        if metrics is not None:
                            metrics.inc(
                                "sim.online.admission.slo_guard_passes"
                            )
                    else:
                        admission.count_shed("brownout", request=request)
                        _close(
                            request,
                            report_mod.SHED,
                            f"brownout tier {TIER_SHED!r} at slot {slot}: "
                            "new arrivals refused under overload",
                            slot,
                        )
                        continue
                decision = admission.decide(request, slot)
                if decision.admitted:
                    candidates.append(
                        _Waiter(request=request, next_slot=slot)
                    )
                    continue
                if decision.action == "shed":
                    _close(
                        request,
                        report_mod.SHED,
                        f"shed by admission policy {decision.policy!r}"
                        + (f": {decision.reason}" if decision.reason else ""),
                        slot,
                    )
                    continue
                # Throttled: park in the bounded queue (or shed if none).
                aqueue = admission.queue
                if aqueue is None:
                    admission.count_shed("no-queue", request=request)
                    _close(
                        request,
                        report_mod.SHED,
                        f"throttled by {decision.policy!r} "
                        f"({decision.reason}) with no admission queue "
                        "configured",
                        slot,
                    )
                    continue
                queued, victim = aqueue.offer(request, slot)
                if victim is not None:
                    admission.count_shed(
                        aqueue.shed_policy, request=victim.request
                    )
                    if queued:
                        admission.observe_queue_wait(
                            victim.request, slot - victim.enqueued_slot
                        )
                    _close(
                        victim.request,
                        report_mod.SHED,
                        f"evicted from full admission queue at slot "
                        f"{slot} ({aqueue.shed_policy})",
                        slot,
                    )
            due = [w for w in waiting if w.next_slot <= slot]
            waiting = [w for w in waiting if w.next_slot > slot]
            candidates.extend(due)

            for waiter in candidates:
                request = waiter.request
                if slot > request.last_start_slot:
                    _close(
                        request,
                        _timed_out(request, report_mod.REJECTED),
                        f"not started by slot {request.last_start_slot}",
                        slot,
                        retries=waiter.retries,
                    )
                    continue
                solution = self._route(request, ledger, network=damaged)
                degraded_admit = False
                if solution is None and admission is not None:
                    hedge = admission.hedge
                    if hedge is not None and hedge.should_hedge(
                        request, slot
                    ):
                        # Near its give-up point a failed attempt is
                        # fatal, so spend alternate solvers now.
                        for alt in hedge.methods:
                            if alt == self.method:
                                continue
                            hedge.record_attempt()
                            if metrics is not None:
                                metrics.inc("sim.online.admission.hedges")
                            solution = self._route(
                                request,
                                ledger,
                                network=damaged,
                                method=alt,
                            )
                            if solution is not None:
                                hedge.record_win(request.name, alt)
                                if metrics is not None:
                                    metrics.inc(
                                        "sim.online.admission.hedge_wins"
                                    )
                                break
                    if (
                        solution is None
                        and tier == TIER_DEGRADED
                        and self.allow_degradation
                        and len(request.users) > 2
                    ):
                        # Brownout degradation: admit the largest
                        # routable user subset instead of blocking.
                        ordered_users = sorted(request.users, key=repr)
                        for size in range(len(ordered_users) - 1, 1, -1):
                            sub = self._route(
                                request,
                                ledger,
                                network=damaged,
                                users=tuple(ordered_users[:size]),
                            )
                            if sub is not None:
                                solution = replace(
                                    sub, method=sub.method + "+degraded"
                                )
                                degraded_admit = True
                                break
                if solution is not None:
                    rset = None
                    if plan_replicas is not None and not degraded_admit:
                        rset = plan_replicas(
                            damaged,
                            solution,
                            ledger,
                            replication,
                            lambda view: self._route(
                                request, ledger, network=view
                            ),
                        )
                        usage = rset.total_usage()
                        if metrics is not None:
                            metrics.inc(
                                "sim.online.replicas_planned", rset.k
                            )
                            if rset.shortfall:
                                metrics.inc(
                                    "sim.online.replica_shortfall",
                                    rset.shortfall,
                                )
                    else:
                        usage = solution.switch_usage()
                        ledger.reserve(usage)
                    release_slot = slot + request.hold
                    if metrics is not None:
                        metrics.inc("sim.online.admitted")
                        metrics.observe(
                            "sim.online.queue_wait_slots",
                            slot - request.arrival,
                        )
                    if degraded_admit:
                        if metrics is not None:
                            metrics.inc(
                                "sim.online.admission.brownout_degradations"
                            )
                        report.record_degradation(
                            request.name,
                            f"slot {slot}: admitted under brownout "
                            f"serving {len(solution.users)}/"
                            f"{len(request.users)} users",
                        )
                    reservations.append(
                        _Reservation(
                            request=request,
                            solution=solution,
                            usage=usage,
                            start_slot=slot,
                            release_slot=release_slot,
                            retries=waiter.retries,
                            degraded=degraded_admit,
                            replicas=rset,
                        )
                    )
                    logger.debug(
                        "request %s admitted at slot %d (release %d)",
                        request.name,
                        slot,
                        release_slot,
                    )
                    continue
                # Blocked: consult the retry policy (or retry next slot).
                waiter.attempts += 1
                if self.retry_policy is not None:
                    delay = self.retry_policy.next_delay(waiter.attempts)
                    if delay is None:
                        _close(
                            request,
                            report_mod.REJECTED,
                            f"retry policy exhausted after "
                            f"{waiter.attempts} attempts",
                            slot,
                            retries=waiter.retries,
                        )
                        continue
                else:
                    delay = 0
                next_slot = slot + 1 + delay
                if next_slot > request.last_start_slot:
                    _close(
                        request,
                        _timed_out(request, report_mod.REJECTED),
                        "blocked until give-up slot "
                        f"{request.last_start_slot}",
                        slot,
                        retries=waiter.retries,
                    )
                    continue
                if self.retry_policy is not None:
                    waiter.retries += 1
                    report.record_retries()
                    if metrics is not None:
                        metrics.inc("sim.online.retries")
                waiter.next_slot = next_slot
                waiting.append(waiter)
            slot += 1

        if metrics is not None:
            metrics.inc("sim.online.slots", slot)
        ordered = tuple(outcomes[r.name] for r in requests)
        if metrics is not None:
            # Fairness gauge: Jain's index over per-tenant acceptance
            # fractions (only meaningful when requests carry tenants).
            arrivals: Dict[str, int] = {}
            accepted: Dict[str, int] = {}
            for outcome in ordered:
                tenant = outcome.request.tenant
                if not tenant:
                    continue
                arrivals[tenant] = arrivals.get(tenant, 0) + 1
                if outcome.accepted:
                    accepted[tenant] = accepted.get(tenant, 0) + 1
            if arrivals:
                from repro.tenancy.fairness import jain_index

                fractions = [
                    accepted.get(tenant, 0) / count
                    for tenant, count in sorted(arrivals.items())
                ]
                metrics.set_gauge(
                    "sim.online.tenant.jain_index",
                    jain_index(fractions),
                )
        return OnlineResult(
            outcomes=ordered,
            slots_simulated=slot - 1,
            peak_qubit_usage=ledger.peak_usage(),
            resilience=report,
            admission=admission.stats() if admission is not None else None,
        )

    def _route(
        self,
        request: EntanglementRequest,
        ledger: CapacityLedger,
        network: Optional[QuantumNetwork] = None,
        method: Optional[str] = None,
        users: Optional[Tuple[Hashable, ...]] = None,
    ) -> Optional[MUERPSolution]:
        """Route one request against *ledger* without mutating it.

        *method* overrides the scheduler's solver (hedged attempts);
        *users* overrides the request's group (brownout degradation).
        """
        net = self.network if network is None else network
        group = request.users if users is None else users
        how = self.method if method is None else method
        budget = ledger.fork()
        if how == "prim":
            solution = solve_prim(
                net, group, rng=self.rng, residual=budget
            )
        else:
            solution = solve_conflict_free(
                net, group, rng=self.rng, residual=budget
            )
        return solution if solution.feasible else None
