"""The :class:`AdmissionController` facade the scheduler consults.

One object bundles the four admission mechanisms — limiter chain,
bounded shed queue, brownout controller, hedge policy — behind the
narrow surface :class:`repro.sim.online.OnlineScheduler` needs:

* :meth:`AdmissionController.begin_slot` — refresh the load signal and
  brownout tier once per slot (publishing the queue-depth and tier
  gauges);
* :meth:`AdmissionController.decide` — run the policy chain on one
  request (counting admitted/throttled/shed verdicts);
* :meth:`AdmissionController.on_closed` — account a terminal
  disposition (freeing bulkhead slots).

Every component is optional: ``AdmissionController()`` admits
everything (useful as an instrumented pass-through), and
:meth:`AdmissionController.default` builds a sensibly-tuned full stack
for one network.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import repro.obs.metrics as obs_metrics
from repro.admission.backpressure import (
    TIER_FULL,
    BrownoutController,
    LoadSignal,
    measure_load,
)
from repro.admission.hedge import HedgePolicy
from repro.admission.limiter import (
    ADMIT,
    AdmissionDecision,
    AdmissionPolicy,
    ConcurrencyLimiter,
    PolicyChain,
    TokenBucketLimiter,
)
from repro.admission.queue import (
    DROP_NEWEST,
    AdmissionQueue,
    request_value_fn,
)
from repro.utils.tenant import tenant_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ledger import CapacityLedger
    from repro.network.graph import QuantumNetwork
    from repro.sim.online import EntanglementRequest
    from repro.tenancy.slo import SLORegistry

logger = logging.getLogger("repro.admission.control")


class AdmissionController:
    """Admission front door: policy chain + queue + brownout + hedge.

    Args:
        policy: The limiter chain consulted per request (``None`` =
            admit everything).
        queue: Bounded holding pen for throttled requests (``None`` =
            throttle verdicts become immediate sheds).
        brownout: Tier state machine driven by ledger/queue load
            (``None`` = always ``full`` service).
        hedge: Near-deadline alternate-solver policy (``None`` = no
            hedging).
        slo: Per-tenant SLO account book
            (:class:`~repro.tenancy.slo.SLORegistry`).  When set, the
            controller records every arrival and disposition per
            tenant, the ``weighted-fair`` queue policy sees live shed
            fractions, and the scheduler's brownout SHED tier spares
            contract-compliant arrivals (the SLO guard).  ``None``
            keeps the single-tenant behaviour.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        queue: Optional[AdmissionQueue] = None,
        brownout: Optional[BrownoutController] = None,
        hedge: Optional[HedgePolicy] = None,
        slo: Optional["SLORegistry"] = None,
    ) -> None:
        self.policy = policy
        self.queue = queue
        self.brownout = brownout
        self.hedge = hedge
        self.slo = slo
        self.admitted = 0
        self.throttled = 0
        self.shed: Dict[str, int] = {}
        #: tenant → cause → sheds (the SLO-attribution breakdown).
        self.shed_by_tenant: Dict[str, Dict[str, int]] = {}
        self.expired = 0
        self._open: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def default(
        cls,
        network: Optional["QuantumNetwork"] = None,
        rate: float = 1.0,
        burst: float = 4.0,
        bulkhead: int = 32,
        queue_size: int = 16,
        shed_policy: str = DROP_NEWEST,
        hedge_methods: Tuple[str, ...] = ("conflict_free",),
        slo: Optional["SLORegistry"] = None,
    ) -> "AdmissionController":
        """A full admission stack with conservative defaults.

        *network* enables the Eq. (1) value signal for
        ``lowest-rate-first`` shedding; it is required for that policy
        and ignored by the others.  *slo* enables tenant-level
        accounting; ``weighted-fair`` shedding creates a default
        registry when none is given, so victim selection and the
        controller always share one account book.
        """
        from repro.admission.queue import LOWEST_VALUE, WEIGHTED_FAIR

        value_fn = None
        if shed_policy == LOWEST_VALUE:
            if network is None:
                raise ValueError(
                    f"{LOWEST_VALUE!r} shedding needs the network for "
                    "its Eq. (1) value estimates"
                )
            value_fn = request_value_fn(network)
        if shed_policy == WEIGHTED_FAIR and slo is None:
            from repro.tenancy.slo import SLORegistry

            slo = SLORegistry()
        return cls(
            policy=PolicyChain(
                [
                    TokenBucketLimiter(rate=rate, capacity=burst),
                    ConcurrencyLimiter(max_in_flight=bulkhead),
                ]
            ),
            queue=AdmissionQueue(
                queue_size,
                shed_policy=shed_policy,
                value_fn=value_fn,
                fairness=slo,
            ),
            brownout=BrownoutController(),
            hedge=HedgePolicy(methods=hedge_methods),
            slo=slo,
        )

    # ------------------------------------------------------------------
    # Scheduler surface
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Fresh run: clear all keyed state and counters."""
        if self.policy is not None:
            self.policy.reset()
        if self.queue is not None:
            self.queue.reset()
        if self.brownout is not None:
            self.brownout.reset()
        if self.hedge is not None:
            self.hedge.reset()
        if self.slo is not None:
            self.slo.reset()
        self.admitted = 0
        self.throttled = 0
        self.shed = {}
        self.shed_by_tenant = {}
        self.expired = 0
        self._open = set()

    def begin_slot(self, slot: int, ledger: "CapacityLedger") -> str:
        """Per-slot housekeeping; returns the current brownout tier."""
        signal = measure_load(ledger, self.queue)
        tier = TIER_FULL
        if self.brownout is not None:
            before = self.brownout.tier
            tier = self.brownout.update(signal, slot)
            if tier != before:
                metrics = obs_metrics.active()
                if metrics is not None:
                    metrics.inc("sim.online.admission.brownout_shifts")
        metrics = obs_metrics.active()
        if metrics is not None:
            if self.queue is not None:
                metrics.set_gauge(
                    "sim.online.admission.queue_depth", self.queue.depth
                )
                metrics.max_gauge(
                    "sim.online.admission.queue_depth_peak",
                    self.queue.depth,
                )
            if self.brownout is not None:
                metrics.set_gauge(
                    "sim.online.admission.brownout_tier",
                    self.brownout.tier_level,
                )
            metrics.max_gauge(
                "sim.online.admission.load_level_peak", signal.level
            )
        return tier

    def on_arrival(
        self, request: "EntanglementRequest", slot: int
    ) -> None:
        """Account one arrival against its tenant's contract."""
        if self.slo is not None:
            self.slo.record_arrival(tenant_label(request), slot)
        metrics = obs_metrics.active()
        if metrics is not None and request.tenant:
            metrics.inc(
                f"sim.online.tenant.{request.tenant}.arrivals"
            )

    def decide(
        self, request: "EntanglementRequest", slot: int
    ) -> AdmissionDecision:
        """Front-door verdict for *request* (counts it, too)."""
        if self.policy is None:
            decision = AdmissionDecision(ADMIT, policy="open-door")
        else:
            decision = self.policy.decide(request, slot)
        metrics = obs_metrics.active()
        if decision.admitted:
            self.admitted += 1
            self._open.add(request.name)
            if metrics is not None:
                metrics.inc("sim.online.admission.admitted")
        elif decision.action == "throttle":
            self.throttled += 1
            if metrics is not None:
                metrics.inc("sim.online.admission.throttled")
        else:
            self.count_shed(decision.policy or "policy", request=request)
        return decision

    def count_shed(
        self,
        cause: str,
        request: Optional["EntanglementRequest"] = None,
    ) -> None:
        """Account one shed decision under *cause* (and its tenant)."""
        self.shed[cause] = self.shed.get(cause, 0) + 1
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc(f"sim.online.admission.shed.{cause}")
        if request is not None:
            tenant = tenant_label(request)
            bucket = self.shed_by_tenant.setdefault(tenant, {})
            bucket[cause] = bucket.get(cause, 0) + 1
            if metrics is not None and request.tenant:
                metrics.inc(
                    f"sim.online.tenant.{request.tenant}.shed.{cause}"
                )

    def count_expired(self) -> None:
        self.expired += 1
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("sim.online.admission.expired")

    def observe_queue_wait(
        self, request: "EntanglementRequest", slots: int
    ) -> None:
        """Record time a request spent in the admission queue."""
        metrics = obs_metrics.active()
        if metrics is None:
            return
        metrics.observe("sim.online.admission.time_in_queue_slots", slots)
        if request.tenant:
            metrics.observe(
                f"sim.online.tenant.{request.tenant}"
                ".time_in_queue_slots",
                slots,
            )

    def on_closed(
        self,
        request: "EntanglementRequest",
        slot: int,
        status: str = "",
    ) -> None:
        """A request reached a terminal disposition; free its slots.

        *status* (a :data:`repro.resilience.report.DISPOSITIONS` value)
        feeds the tenant's SLO account when a registry is wired in.
        """
        if request.name in self._open:
            self._open.discard(request.name)
            if self.policy is not None:
                self.policy.on_released(request, slot)
        if status and self.slo is not None:
            self.slo.record_disposition(tenant_label(request), status)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Deterministic serializable snapshot of the run's decisions."""
        out: Dict[str, object] = {
            "admitted": self.admitted,
            "throttled": self.throttled,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": sum(self.shed.values()),
            "expired": self.expired,
        }
        if self.shed_by_tenant:
            out["shed_by_tenant"] = {
                tenant: dict(sorted(causes.items()))
                for tenant, causes in sorted(self.shed_by_tenant.items())
            }
        if self.slo is not None:
            out["slo"] = self.slo.table()
            out["jain_index"] = round(self.slo.jain_index(), 6)
        if self.queue is not None:
            out["queue_peak_depth"] = self.queue.peak_depth
            out["queue_sheds"] = self.queue.sheds
            out["queue_expirations"] = self.queue.expirations
        if self.brownout is not None:
            out["brownout_transitions"] = [
                [slot, tier] for slot, tier in self.brownout.transitions
            ]
            out["final_tier"] = self.brownout.tier
        if self.hedge is not None:
            out["hedges_spent"] = self.hedge.hedges_spent
            out["hedge_wins"] = self.hedge.hedge_wins
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts: List[str] = []
        if self.policy is not None:
            parts.append(f"policy={self.policy!r}")
        if self.queue is not None:
            parts.append(f"queue={self.queue!r}")
        if self.brownout is not None:
            parts.append(f"brownout={self.brownout!r}")
        if self.hedge is not None:
            parts.append(f"hedge={self.hedge!r}")
        return f"AdmissionController({', '.join(parts)})"
