"""The multi-tenant serving facade: one call, the whole SLO stack.

:func:`serve_tenants` wires together everything the tenancy layer
adds — per-tenant SLO contracts, weighted-fair admission, k-redundant
trees with mid-service failover — around the
:class:`~repro.sim.online.OnlineScheduler`, and returns a
:class:`TenantServingResult` whose per-tenant table answers the
operator questions: who got served, who absorbed the shed, did anyone
blow their error budget, and how fair was the outcome (Jain index).

The ``repro serve`` CLI subcommand and the 100x multi-tenant soak
benchmark are thin shells over this function, so they exercise exactly
the code path a library user gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.admission.control import AdmissionController
from repro.admission.queue import WEIGHTED_FAIR
from repro.sim.online import EntanglementRequest, OnlineResult, OnlineScheduler
from repro.tenancy.replicas import ReplicationPolicy
from repro.tenancy.slo import SLORegistry, TenantSLO, tenant_label
from repro.utils.rng import RngLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import QuantumNetwork
    from repro.resilience.faults import FaultInjector
    from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class TenantServingResult:
    """One multi-tenant run: scheduler telemetry + the SLO account book."""

    result: OnlineResult
    registry: SLORegistry

    @property
    def outcomes(self):
        return self.result.outcomes

    def jain_index(self) -> float:
        return self.registry.jain_index()

    def tenant_table(self) -> Dict[str, Dict[str, object]]:
        return self.registry.table()

    def failovers(self) -> int:
        return sum(o.failovers for o in self.result.outcomes)

    def overbooked_switches(
        self, network: "QuantumNetwork"
    ) -> List[object]:
        """Switches whose peak usage exceeded their budget (must be [])."""
        return self.result.overbooked_switches(network)

    def unattributed(self) -> List[str]:
        """Requests without exactly one disposition (must be [])."""
        return self.result.unattributed()

    def to_dict(self) -> Dict[str, object]:
        """Deterministic serializable summary (the soak artifact core)."""
        out: Dict[str, object] = {
            "n_requests": len(self.result.outcomes),
            "n_accepted": self.result.n_accepted,
            "n_degraded": self.result.n_degraded,
            "n_shed": self.result.n_shed,
            "acceptance_ratio": round(self.result.acceptance_ratio, 6),
            "failovers": self.failovers(),
            "jain_index": round(self.jain_index(), 6),
            "tenants": self.tenant_table(),
            "resilience": self.result.resilience.to_dict(),
        }
        if self.result.admission is not None:
            out["admission"] = self.result.admission
        return out

    def render(self) -> str:
        """Operator-facing per-tenant SLO table."""
        lines = [
            "tenant serving report",
            f"  requests : {len(self.result.outcomes)}"
            f" (accepted {self.result.n_accepted},"
            f" shed {self.result.n_shed})",
            f"  failovers: {self.failovers()}",
            f"  jain     : {self.jain_index():.4f}",
            "  tenants:",
        ]
        header = (
            f"    {'tenant':<16} {'w':>4} {'arr':>5} {'served':>6} "
            f"{'shed':>5} {'shed%':>6} {'budget':>7} {'slo':>4}"
        )
        lines.append(header)
        for tenant, row in self.tenant_table().items():
            lines.append(
                f"    {tenant:<16} {row['weight']:>4.1f} "
                f"{row['arrivals']:>5} "
                f"{row['served'] + row['degraded']:>6} "
                f"{row['shed']:>5} "
                f"{100 * row['shed_fraction']:>5.1f}% "
                f"{row['error_budget_remaining']:>7.3f} "
                f"{'ok' if row['slo_met'] else 'MISS':>4}"
            )
        return "\n".join(lines)


def default_slos(
    tenants: Iterable[str],
    weights: Optional[Dict[str, float]] = None,
    guaranteed_rate: float = 0.25,
    max_shed_fraction: float = 0.5,
) -> List[TenantSLO]:
    """Uniform contracts over *tenants*, with optional weight overrides."""
    weights = weights or {}
    return [
        TenantSLO(
            tenant=tenant,
            weight=weights.get(tenant, 1.0),
            guaranteed_rate=guaranteed_rate,
            max_shed_fraction=max_shed_fraction,
        )
        for tenant in sorted(set(tenants))
    ]


def serve_tenants(
    network: "QuantumNetwork",
    requests: Sequence[EntanglementRequest],
    slos: Optional[Iterable[TenantSLO]] = None,
    method: str = "prim",
    rng: RngLike = None,
    replication: Optional[ReplicationPolicy] = None,
    fault_injector: Optional["FaultInjector"] = None,
    retry_policy: Optional["RetryPolicy"] = None,
    admission: Optional[AdmissionController] = None,
    rate: float = 1.0,
    burst: float = 4.0,
    bulkhead: int = 32,
    queue_size: int = 16,
) -> TenantServingResult:
    """Serve *requests* with the full multi-tenant SLO stack.

    When *admission* is omitted, a weighted-fair stack is built from
    *rate*/*burst*/*bulkhead*/*queue_size*; when *slos* is omitted,
    every tenant observed in *requests* gets the default contract.
    A supplied *admission* controller must carry an
    :class:`~repro.tenancy.slo.SLORegistry` (``admission.slo``); the
    registry in play is always returned inside the result.
    """
    if admission is not None and admission.slo is None:
        raise ValueError(
            "serve_tenants needs an SLO registry on the admission "
            "controller (pass AdmissionController(..., slo=...))"
        )
    if admission is None:
        if slos is None:
            slos = default_slos(tenant_label(r) for r in requests)
        registry = SLORegistry(slos)
        admission = AdmissionController.default(
            network,
            rate=rate,
            burst=burst,
            bulkhead=bulkhead,
            queue_size=queue_size,
            shed_policy=WEIGHTED_FAIR,
            slo=registry,
        )
    registry = admission.slo
    if replication is None:
        replication = ReplicationPolicy(k=2)
    scheduler = OnlineScheduler(
        network,
        method=method,
        rng=rng,
        fault_injector=fault_injector,
        retry_policy=retry_policy,
        admission=admission,
        replication=replication,
    )
    result = scheduler.run(requests)
    return TenantServingResult(result=result, registry=registry)
