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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_trace
from repro.admission.backpressure import TIER_DEGRADED, TIER_FULL, TIER_SHED
from repro.core.channel import relay_joined
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.core.problem import MUERPSolution
from repro.extensions.recovery import (
    STEP_DEGRADE,
    STEP_REPAIR,
    apply_failures,
    channel_broken,
    recover,
)
from repro.network.graph import QuantumNetwork
from repro.resilience.faults import _FIBER_KINDS, FaultInjector, FaultKind
from repro.resilience.report import (
    ABANDONED,
    DEADLINE_EXCEEDED,
    DEGRADED,
    REJECTED,
    SERVED,
    SHED,
    RequestDisposition,
    ResilienceReport,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.tenant import tenant_label
from repro.verify.verifier import SolutionVerifier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.admission.control import AdmissionController
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
    #: Index of the last slot the loop ran, so one less than the slots
    #: it ran (the ``sim.online.slots`` counter); 0 when an empty stream
    #: ran none.
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
    # The run loop — one call per slot phase, in order.
    # ------------------------------------------------------------------
    def _run(
        self, requests: Sequence[EntanglementRequest]
    ) -> OnlineResult:
        run = _Run(self, requests)
        # An empty stream simulates no slot, even with faults scheduled.
        while requests and run.running():
            cuts, darks = run.advance_faults()
            run.release_expired()
            run.absorb_faults(cuts, darks)
            run.expire_queue()
            for waiter in run.gather_candidates():
                if not run.try_start(waiter):
                    run.block(waiter)
            run.slot += 1
        return run.result()


def _timed_out(request: EntanglementRequest, otherwise: str) -> str:
    """Status of a request whose time ran out before service."""
    if request.deadline is not None:
        return DEADLINE_EXCEEDED
    return otherwise


class _Run:
    """One :meth:`OnlineScheduler.run`'s state, with one method per phase.

    Every slot runs the phases in this order:

    0. :meth:`advance_faults` — the fault clock and the damaged view;
    1. :meth:`release_expired` — completed service closes;
    2. :meth:`absorb_faults` — mid-service :meth:`failover` among
       replicas, then the :meth:`repair_ladder` (repair, degrade or
       abandon);
    2b. :meth:`expire_queue` — admission-queue expiry and the brownout
       tier;
    3. :meth:`gather_candidates` (queue drain, arrivals, due waiters),
       then :meth:`try_start` per candidate and :meth:`block` for each
       one that found no route.
    """

    def __init__(
        self,
        scheduler: OnlineScheduler,
        requests: Sequence[EntanglementRequest],
    ) -> None:
        self.scheduler = scheduler
        self.requests = requests
        self.metrics = obs_metrics.active()
        self.injector = scheduler.fault_injector
        if self.injector is not None:
            self.injector.reset()
        self.admission = scheduler.admission
        if self.admission is not None:
            self.admission.reset()
        self.report = ResilienceReport()
        # The transactional capacity account: reserve on admission,
        # release on completion; the repair path swaps reservations
        # inside a transaction so an exception can never leak qubits.
        self.ledger = CapacityLedger.from_network(scheduler.network)
        #: Idle budgets, never spent: the brownout tier's view of which
        #: groups only the network itself splits.
        self.idle = CapacityLedger.from_network(scheduler.network)
        self.verifier = SolutionVerifier() if scheduler.verify else None
        # repro.tenancy is imported per run, here and in failover() and
        # result(), not per module: its package imports
        # repro.tenancy.serving, which imports this module.
        from repro.tenancy.replicas import plan_replica_set

        self.plan_replicas = None
        replication = scheduler.replication
        if replication is not None and replication.k > 1:
            self.plan_replicas = plan_replica_set

        self.reservations: List[_Reservation] = []
        self.waiting: List[_Waiter] = []
        self.outcomes: Dict[str, RequestOutcome] = {}
        self.by_arrival: Dict[int, List[EntanglementRequest]] = {}
        for request in requests:
            self.by_arrival.setdefault(request.arrival, []).append(request)
        self.horizon = max(
            (r.last_start_slot + 1 for r in requests), default=0
        )
        if self.injector is not None:
            self.horizon = max(self.horizon, self.injector.schedule.last_slot)
        self.damaged = scheduler.network
        self.active_sig: Tuple[frozenset, frozenset] = (
            frozenset(),
            frozenset(),
        )
        self.tier = TIER_FULL
        self.slot = 0

    def running(self) -> bool:
        """Whether the slot is within the horizon, a release or a retry."""
        end = self.horizon
        if self.reservations:
            end = max(end, max(r.release_slot for r in self.reservations))
        if self.waiting:
            end = max(end, max(w.next_slot for w in self.waiting))
        return self.slot <= end

    def route(
        self,
        request: EntanglementRequest,
        network: Optional[QuantumNetwork] = None,
        method: Optional[str] = None,
        users: Optional[Tuple[Hashable, ...]] = None,
    ) -> Optional[MUERPSolution]:
        """Route *request* on the damaged view and hold its tree.

        The solve runs on the live ledger: a feasible tree's qubits stay
        reserved there, and a refused or failed solve leaves the ledger
        untouched.  *network* overrides the view (replica planning),
        *method* the scheduler's solver (hedged attempts) and *users*
        the request's group (brownout degradation).
        """
        scheduler = self.scheduler
        how = scheduler.method if method is None else method
        solve = solve_prim if how == "prim" else solve_conflict_free
        solution = solve(
            self.damaged if network is None else network,
            request.users if users is None else users,
            rng=scheduler.rng,
            residual=self.ledger,
        )
        return solution if solution.feasible else None

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* when metrics are on."""
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def count_request(self, what: str, request: EntanglementRequest) -> None:
        """Count ``sim.online.<what>``, and its twin for a tenant request."""
        if self.metrics is not None:
            self.metrics.inc(f"sim.online.{what}")
            if request.tenant:
                self.metrics.inc(
                    f"sim.online.tenant.{request.tenant}.{what}"
                )

    def close(
        self,
        request: EntanglementRequest,
        status: str,
        reason: str,
        retries: int = 0,
        res: Optional[_Reservation] = None,
    ) -> None:
        """Record *request*'s one outcome and disposition at this slot.

        *res* is the request's reservation once it has started: served
        (``SERVED``/``DEGRADED``) or abandoned mid-service.
        """
        served = status in (SERVED, DEGRADED)
        served_users: Tuple[Hashable, ...] = ()
        reroutes = failovers = 0
        if res is not None:
            retries = res.retries
            reroutes = res.reroutes
            failovers = res.failovers
            if served:
                served_users = tuple(sorted(res.solution.users, key=repr))
        self.outcomes[request.name] = RequestOutcome(
            request=request,
            accepted=served,
            solution=res.solution if served else None,
            start_slot=None if res is None else res.start_slot,
            release_slot=res.release_slot if served else None,
            disposition=status,
            degraded=status == DEGRADED,
            served_users=served_users,
            reroutes=reroutes,
            failovers=failovers,
        )
        self.report.close_request(
            RequestDisposition(
                name=request.name,
                status=status,
                reason=reason,
                slot=self.slot,
                retries=retries,
                reroutes=reroutes,
                served_users=served_users,
                tenant=request.tenant or "",
                failovers=failovers,
            )
        )
        self.count_request(f"dispositions.{status}", request)
        if self.admission is not None:
            self.admission.on_closed(request, self.slot, status)
        if not served:
            logger.info(
                "request %s lost at slot %d: %s (%s)",
                request.name,
                self.slot,
                status,
                reason,
            )
        elif res.hit_by_fault and status == SERVED:
            self.report.record_recovery(request.name)

    def advance_faults(self) -> Tuple[Set, Set]:
        """Advance the fault clock and refresh the damaged view.

        Returns the fiber cuts and dark switches that fired this jump
        and are still active.  Only those can newly break a serving
        tree: every surviving reservation was routed, repaired or
        degraded on a damaged view that already excluded the elements
        active before.  A transient that fires and expires within one
        clock jump is back up, so it must not trigger repairs.
        """
        injector = self.injector
        if injector is None:
            return set(), set()
        repaired_before = injector.faults_repaired
        fired = injector.advance(self.slot)
        for event in fired:
            self.report.record_fault(event.describe())
        self.report.record_repairs(injector.faults_repaired - repaired_before)
        cuts = frozenset(injector.active_fiber_cuts)
        darks = frozenset(injector.active_dark_switches)
        if (cuts, darks) != self.active_sig:
            self.active_sig = (cuts, darks)
            base = self.scheduler.network
            self.damaged = (
                apply_failures(base, cuts, darks) if (cuts or darks) else base
            )
        return (
            {e.target for e in fired if e.kind in _FIBER_KINDS} & cuts,
            {e.target for e in fired if e.kind is FaultKind.SWITCH_DARK}
            & darks,
        )

    def release_expired(self) -> None:
        """Release the reservations whose service completed."""
        still: List[_Reservation] = []
        for res in self.reservations:
            if res.release_slot > self.slot:
                still.append(res)
                continue
            self.ledger.release(res.usage)
            status, reason = SERVED, ""
            if res.degraded:
                status = DEGRADED
                reason = (
                    f"degraded to {len(res.solution.users)}/"
                    f"{len(res.request.users)} users"
                )
            self.close(res.request, status, reason, res=res)
        self.reservations = still

    def absorb_faults(self, cuts: Set, darks: Set) -> None:
        """Fail over, repair, degrade or abandon what *cuts*/*darks* broke.

        A tree that avoids every newly fired element is left alone (the
        incremental fast path).
        """
        if not (cuts or darks):
            return
        surviving: List[_Reservation] = []
        for res in self.reservations:
            if res.replicas is not None and self.failover(res, cuts, darks):
                surviving.append(res)
            elif not any(
                channel_broken(c, cuts, darks) for c in res.solution.channels
            ):
                self.count("repro.incremental.online.disjoint_noop")
                surviving.append(res)
            elif self.repair_ladder(res):
                surviving.append(res)
        self.reservations = surviving

    def failover(self, res: _Reservation, cuts: Set, darks: Set) -> bool:
        """Absorb the fault at *res*'s replica layer.

        Returns False once every replica is dead: *res* then collapses to
        a plain single-tree reservation for the repair ladder.
        """
        from repro.tenancy.replicas import EXHAUSTED, FAILOVER, INTACT

        event, released = res.replicas.handle_faults(cuts, darks)
        if released:
            with self.ledger.transaction():
                for extra_usage in released:
                    self.ledger.release(extra_usage)
        if event == INTACT:
            self.count("repro.incremental.online.disjoint_noop")
            return True
        res.hit_by_fault = True
        res.usage = res.replicas.total_usage()
        if event == EXHAUSTED:
            res.replicas = None
            self.count("sim.online.replicas_exhausted")
            return False
        res.solution = res.replicas.serving_solution
        if event != FAILOVER:
            self.count("sim.online.replicas_pruned")
            return True
        res.failovers += 1
        self.count_request("failovers", res.request)
        if self.admission is not None and self.admission.slo is not None:
            self.admission.slo.record_failover(tenant_label(res.request))
        self.report.record_failover(
            res.request.name,
            f"slot {self.slot}: promoted standby "
            f"({res.replicas.k} replicas left)",
        )
        return True

    def repair_ladder(self, res: _Reservation) -> bool:
        """Repair *res*'s broken tree, degrade it, or abandon it.

        Returns whether *res* still serves.
        """
        res.hit_by_fault = True
        cuts, darks = self.active_sig
        # Capacity-aware repair: the reservation's own qubits go back,
        # and the live ledger holds whatever tree recover keeps.
        with self.ledger.transaction():
            self.ledger.release(res.usage)
            step, fixed, rep = recover(
                self.damaged,  # rebuilt once per fault signature
                res.solution,
                cuts,
                darks,
                residual=self.ledger,
                allow_degradation=self.scheduler.allow_degradation,
                verifier=self.verifier,
                report=self.report,
                name=res.request.name,
            )
        if not step:
            # No repair, no viable subset.
            detail_parts = []
            if cuts:
                detail_parts.append(f"cut fibers {sorted(cuts, key=repr)!r}")
            if darks:
                detail_parts.append(
                    f"dark switches {sorted(darks, key=repr)!r}"
                )
            self.close(
                res.request,
                ABANDONED,
                f"mid-service fault at slot {self.slot} "
                f"({' and '.join(detail_parts)}); repair infeasible "
                "and no >=2-user subset survives",
                res=res,
            )
            return False
        res.solution = fixed
        res.usage = fixed.switch_usage()
        if step == STEP_REPAIR:
            res.reroutes += 1
            self.count("sim.online.repairs")
            self.report.record_reroute(
                res.request.name,
                f"slot {self.slot}: "
                f"{len(rep.broken_channels)} broken channels re-routed",
            )
        elif step == STEP_DEGRADE:
            res.degraded = True
            self.count("sim.online.degradations")
            self.report.record_degradation(
                res.request.name,
                f"slot {self.slot}: serving "
                f"{len(fixed.users)}/{len(res.request.users)} "
                f"users after unrepairable fault",
            )
        return True

    def expire_queue(self) -> None:
        """Expire overdue queue entries; refresh the brownout tier.

        Runs once releases and fault handling have settled, so the tier
        reads the fresh load signal.
        """
        admission = self.admission
        if admission is None:
            return
        slot = self.slot
        if admission.queue is not None:
            for entry in admission.queue.expired(slot):
                admission.count_expired()
                admission.observe_queue_wait(
                    entry.request, slot - entry.enqueued_slot
                )
                self.close(
                    entry.request,
                    _timed_out(entry.request, SHED),
                    "expired in admission queue after "
                    f"{slot - entry.enqueued_slot} slots without "
                    "a limiter slot",
                )
        self.tier = admission.begin_slot(slot, self.ledger)

    def gather_candidates(self) -> List[_Waiter]:
        """This slot's start candidates: queued backlog, arrivals, waiters."""
        slot = self.slot
        admission = self.admission
        candidates: List[_Waiter] = []
        if (
            admission is not None
            and admission.queue is not None
            and self.tier != TIER_SHED
        ):
            # Drain the backlog in policy order while the limiter chain
            # has headroom; the first throttle ends the drain (no later
            # entry may jump the priority order).
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
        for request in self.by_arrival.get(slot, []):
            if admission is None or self.admit_arrival(request):
                candidates.append(_Waiter(request=request, next_slot=slot))
        candidates.extend(w for w in self.waiting if w.next_slot <= slot)
        self.waiting = [w for w in self.waiting if w.next_slot > slot]
        return candidates

    def admit_arrival(self, request: EntanglementRequest) -> bool:
        """Whether admission control lets *request* route this slot.

        A refused arrival is shed, or parked in the admission queue.
        """
        slot = self.slot
        admission = self.admission
        admission.on_arrival(request, slot)
        if self.tier == TIER_SHED:
            # SLO guard: arrivals within their tenant's contracted rate
            # are spared the wholesale brownout refusal and still face
            # the limiter chain — a compliant tenant is never starved by
            # a flooding neighbour.
            slo = admission.slo
            if slo is None or not slo.within_guarantee(
                tenant_label(request), slot
            ):
                admission.count_shed("brownout", request=request)
                self.close(
                    request,
                    SHED,
                    f"brownout tier {TIER_SHED!r} at slot {slot}: "
                    "new arrivals refused under overload",
                )
                return False
            self.count("sim.online.admission.slo_guard_passes")
        decision = admission.decide(request, slot)
        if decision.admitted:
            return True
        aqueue = admission.queue
        if decision.action == "shed":
            reason = f"shed by admission policy {decision.policy!r}" + (
                f": {decision.reason}" if decision.reason else ""
            )
        elif aqueue is None:
            admission.count_shed("no-queue", request=request)
            reason = (
                f"throttled by {decision.policy!r} "
                f"({decision.reason}) with no admission queue configured"
            )
        else:
            # Throttled: park in the bounded queue.
            queued, victim = aqueue.offer(request, slot)
            if victim is not None:
                admission.count_shed(
                    aqueue.shed_policy, request=victim.request
                )
                if queued:
                    admission.observe_queue_wait(
                        victim.request, slot - victim.enqueued_slot
                    )
                self.close(
                    victim.request,
                    SHED,
                    f"evicted from full admission queue at slot "
                    f"{slot} ({aqueue.shed_policy})",
                )
            return False
        self.close(request, SHED, reason)
        return False

    def try_start(self, waiter: _Waiter) -> bool:
        """Route *waiter*'s request and hold its tree from this slot.

        Returns False when it is blocked.  A request already past its
        last start slot is closed without a routing attempt.
        """
        request = waiter.request
        slot = self.slot
        if slot > request.last_start_slot:
            self.close(
                request,
                _timed_out(request, REJECTED),
                f"not started by slot {request.last_start_slot}",
                retries=waiter.retries,
            )
            return True
        # Routing holds the tree on the live ledger; the transaction
        # returns it if anything below raises.
        with self.ledger.transaction():
            solution = self.route(request)
            degraded = False
            if solution is None and self.admission is not None:
                solution = self.hedge(request)
                if (
                    solution is None
                    and self.tier == TIER_DEGRADED
                    and self.scheduler.allow_degradation
                    and len(request.users) > 2
                ):
                    solution = self.brownout_subset(request)
                    degraded = solution is not None
            if solution is None:
                return False
            rset = None
            if self.plan_replicas is not None and not degraded:
                rset = self.plan_replicas(
                    self.damaged,
                    solution,
                    self.ledger,
                    self.scheduler.replication,
                    lambda view: self.route(request, network=view),
                )
                usage = rset.total_usage()
                self.count("sim.online.replicas_planned", rset.k)
                if rset.shortfall:
                    self.count("sim.online.replica_shortfall", rset.shortfall)
            else:
                usage = solution.switch_usage()
            release_slot = slot + request.hold
            if self.metrics is not None:
                self.metrics.inc("sim.online.admitted")
                self.metrics.observe(
                    "sim.online.queue_wait_slots", slot - request.arrival
                )
            if degraded:
                self.count("sim.online.admission.brownout_degradations")
                self.report.record_degradation(
                    request.name,
                    f"slot {slot}: admitted under brownout serving "
                    f"{len(solution.users)}/{len(request.users)} users",
                )
            self.reservations.append(
                _Reservation(
                    request=request,
                    solution=solution,
                    usage=usage,
                    start_slot=slot,
                    release_slot=release_slot,
                    retries=waiter.retries,
                    degraded=degraded,
                    replicas=rset,
                )
            )
        logger.debug(
            "request %s admitted at slot %d (release %d)",
            request.name,
            slot,
            release_slot,
        )
        return True

    def hedge(self, request: EntanglementRequest) -> Optional[MUERPSolution]:
        """Route *request* with alternate solvers near its give-up point.

        There a failed attempt is fatal, so the hedge spends them now.
        """
        hedge = self.admission.hedge
        if hedge is None or not hedge.should_hedge(request, self.slot):
            return None
        for alt in hedge.methods:
            if alt == self.scheduler.method:
                continue
            hedge.record_attempt()
            self.count("sim.online.admission.hedges")
            solution = self.route(request, method=alt)
            if solution is not None:
                hedge.record_win(request.name, alt)
                self.count("sim.online.admission.hedge_wins")
                return solution
        return None

    def brownout_subset(
        self, request: EntanglementRequest
    ) -> Optional[MUERPSolution]:
        """Route the largest routable subset of *request*'s users.

        Only a group that load splits is degraded.  A group the damaged
        view splits on idle budgets can never be served whole, so the
        open door rejects it; serving part of it here would serve
        behind admission a request that the open door does not.
        """
        if not relay_joined(self.damaged, request.users, self.idle):
            return None
        ordered_users = sorted(request.users, key=repr)
        for size in range(len(ordered_users) - 1, 1, -1):
            sub = self.route(request, users=tuple(ordered_users[:size]))
            if sub is not None:
                return replace(sub, method=sub.method + "+degraded")
        return None

    def block(self, waiter: _Waiter) -> None:
        """Schedule a blocked *waiter*'s next attempt, or close it."""
        request = waiter.request
        waiter.attempts += 1
        policy = self.scheduler.retry_policy
        delay = 0
        if policy is not None:
            delay = policy.next_delay(waiter.attempts)
            if delay is None:
                self.close(
                    request,
                    REJECTED,
                    f"retry policy exhausted after {waiter.attempts} "
                    "attempts",
                    retries=waiter.retries,
                )
                return
        next_slot = self.slot + 1 + delay
        if next_slot > request.last_start_slot:
            self.close(
                request,
                _timed_out(request, REJECTED),
                f"blocked until give-up slot {request.last_start_slot}",
                retries=waiter.retries,
            )
            return
        if policy is not None:
            waiter.retries += 1
            self.report.record_retries()
            self.count("sim.online.retries")
        waiter.next_slot = next_slot
        self.waiting.append(waiter)

    def result(self) -> OnlineResult:
        """The run's telemetry, once the loop has stopped."""
        ordered = tuple(self.outcomes[r.name] for r in self.requests)
        metrics = self.metrics
        if metrics is not None:
            if self.slot:
                metrics.inc("sim.online.slots", self.slot)
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
                    "sim.online.tenant.jain_index", jain_index(fractions)
                )
        return OnlineResult(
            outcomes=ordered,
            # self.slot is one past the last slot the loop ran; an
            # empty stream ran none.
            slots_simulated=max(self.slot - 1, 0),
            peak_qubit_usage=self.ledger.peak_usage(),
            resilience=self.report,
            admission=(
                self.admission.stats() if self.admission is not None else None
            ),
        )
