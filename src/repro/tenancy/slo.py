"""Per-tenant SLO targets and error-budget accounting.

The serving layer treats every request's ``tenant`` label as an
account with a contract:

* a **weight** — the tenant's share of capacity under contention
  (weighted-fair shedding equalizes ``shed_fraction × weight``, so a
  weight-2 tenant absorbs half the shed fraction of a weight-1 one);
* a **guaranteed rate** — arrivals/slot the tenant may submit and
  still be *compliant* (token-bucket style: a tenant whose cumulative
  arrivals stay within ``burst + rate × slots`` is within contract);
* a **max shed fraction** — the SLO target; the gap between it and the
  observed shed fraction is the tenant's remaining **error budget**.

Compliance is what the anti-starvation guarantee keys on: the
weighted-fair shed policy never victimizes a compliant tenant while a
non-compliant one has queue entries, and the brownout SHED tier lets
compliant arrivals through to the limiter chain instead of refusing
them wholesale (the "SLO guard").

Everything here is pure bookkeeping — deterministic, no rng, no
network access — so same-seed runs produce identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.utils.tenant import UNTENANTED, tenant_label  # noqa: F401


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's serving contract.

    Attributes:
        tenant: Account label (matches ``EntanglementRequest.tenant``).
        weight: Relative capacity share under contention (> 0).
        guaranteed_rate: Arrivals/slot the tenant may submit while
            staying compliant.
        guaranteed_burst: Arrival slack on top of the rate (so a
            compliant tenant may clump a few requests).
        max_shed_fraction: SLO target — the shed fraction the tenant
            tolerates before its error budget is exhausted.
    """

    tenant: str
    weight: float = 1.0
    guaranteed_rate: float = 0.25
    guaranteed_burst: float = 2.0
    max_shed_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant label must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be > 0")
        if self.guaranteed_rate < 0:
            raise ValueError("guaranteed_rate must be >= 0")
        if self.guaranteed_burst < 0:
            raise ValueError("guaranteed_burst must be >= 0")
        if not 0.0 <= self.max_shed_fraction <= 1.0:
            raise ValueError("max_shed_fraction must be in [0, 1]")


@dataclass
class TenantAccount:
    """Mutable per-tenant counters accumulated during one run."""

    arrivals: int = 0
    served: int = 0
    degraded: int = 0
    shed: int = 0
    failed: int = 0  # abandoned / rejected / deadline-exceeded
    failovers: int = 0
    dispositions: Dict[str, int] = field(default_factory=dict)

    @property
    def closed(self) -> int:
        return sum(self.dispositions.values())

    @property
    def accepted(self) -> int:
        return self.served + self.degraded

    def shed_fraction(self) -> float:
        if self.arrivals == 0:
            return 0.0
        return self.shed / self.arrivals

    def served_fraction(self) -> float:
        if self.arrivals == 0:
            return 0.0
        return self.accepted / self.arrivals


class SLORegistry:
    """Account book for every tenant's arrivals, outcomes, and budget.

    The registry is consulted *during* a run (weighted-fair victim
    selection, SLO-guard compliance checks) and read *after* it (the
    per-tenant SLO table).  Tenants without an explicit
    :class:`TenantSLO` fall back to *default_slo*, so the registry
    works over workloads whose tenant population is only discovered as
    requests arrive.
    """

    def __init__(
        self,
        slos: Iterable[TenantSLO] = (),
        default_slo: Optional[TenantSLO] = None,
    ) -> None:
        self._slos: Dict[str, TenantSLO] = {}
        for slo in slos:
            if slo.tenant in self._slos:
                raise ValueError(f"duplicate SLO for tenant {slo.tenant!r}")
            self._slos[slo.tenant] = slo
        self._default = default_slo or TenantSLO(tenant="(default)")
        self._accounts: Dict[str, TenantAccount] = {}

    # ------------------------------------------------------------------
    # Contracts
    # ------------------------------------------------------------------
    def slo_for(self, tenant: str) -> TenantSLO:
        slo = self._slos.get(tenant)
        if slo is not None:
            return slo
        return self._default

    def weight(self, tenant: str) -> float:
        return self.slo_for(tenant).weight

    def tenants(self) -> List[str]:
        """Every tenant seen or contracted, sorted."""
        return sorted(set(self._slos) | set(self._accounts))

    def account(self, tenant: str) -> TenantAccount:
        acct = self._accounts.get(tenant)
        if acct is None:
            acct = TenantAccount()
            self._accounts[tenant] = acct
        return acct

    # ------------------------------------------------------------------
    # Recording (called from the admission controller / scheduler)
    # ------------------------------------------------------------------
    def record_arrival(self, tenant: str, slot: int) -> None:
        self.account(tenant).arrivals += 1

    def record_disposition(self, tenant: str, status: str) -> None:
        acct = self.account(tenant)
        acct.dispositions[status] = acct.dispositions.get(status, 0) + 1
        if status == "served":
            acct.served += 1
        elif status == "degraded":
            acct.degraded += 1
        elif status == "shed":
            acct.shed += 1
        else:
            acct.failed += 1

    def record_failover(self, tenant: str) -> None:
        self.account(tenant).failovers += 1

    def reset(self) -> None:
        self._accounts = {}

    # ------------------------------------------------------------------
    # Derived signals
    # ------------------------------------------------------------------
    def shed_fraction(self, tenant: str) -> float:
        return self.account(tenant).shed_fraction()

    def served_fraction(self, tenant: str) -> float:
        return self.account(tenant).served_fraction()

    def weighted_pain(self, tenant: str) -> float:
        """Shed fraction scaled by weight — the fairness potential.

        The weighted-fair shed policy always victimizes the tenant with
        the *least* weighted pain, which in steady state equalizes
        ``shed_fraction × weight`` across tenants: pain lands in
        inverse proportion to weight.
        """
        return self.shed_fraction(tenant) * self.weight(tenant)

    def within_guarantee(self, tenant: str, slot: int) -> bool:
        """Whether *tenant*'s cumulative arrivals respect its contract.

        Token-bucket form: compliant while
        ``arrivals <= burst + rate × (slot + 1)``.  A tenant that
        floods beyond its guaranteed rate loses compliance — and with
        it the anti-starvation protection.
        """
        slo = self.slo_for(tenant)
        allowance = slo.guaranteed_burst + slo.guaranteed_rate * (slot + 1)
        return self.account(tenant).arrivals <= allowance

    def error_budget_remaining(self, tenant: str) -> float:
        """SLO headroom left, in [−1, 1]: target − observed shed fraction."""
        return (
            self.slo_for(tenant).max_shed_fraction
            - self.shed_fraction(tenant)
        )

    def slo_met(self, tenant: str) -> bool:
        return self.error_budget_remaining(tenant) >= 0.0

    def jain_index(self) -> float:
        """Jain's fairness index over per-tenant served fractions.

        ``J = (Σx)² / (n · Σx²)`` over tenants with at least one
        arrival; 1.0 = perfectly even service, 1/n = one tenant takes
        everything.  Empty runs report 1.0 (vacuously fair).
        """
        from repro.tenancy.fairness import jain_index

        fractions = [
            acct.served_fraction()
            for tenant, acct in sorted(self._accounts.items())
            if acct.arrivals > 0
        ]
        return jain_index(fractions)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, object]]:
        """Deterministic serializable per-tenant SLO table."""
        out: Dict[str, Dict[str, object]] = {}
        for tenant in self.tenants():
            acct = self.account(tenant)
            slo = self.slo_for(tenant)
            out[tenant] = {
                "weight": slo.weight,
                "arrivals": acct.arrivals,
                "served": acct.served,
                "degraded": acct.degraded,
                "shed": acct.shed,
                "failed": acct.failed,
                "failovers": acct.failovers,
                "served_fraction": round(acct.served_fraction(), 6),
                "shed_fraction": round(acct.shed_fraction(), 6),
                "max_shed_fraction": slo.max_shed_fraction,
                "error_budget_remaining": round(
                    self.error_budget_remaining(tenant), 6
                ),
                "slo_met": self.slo_met(tenant),
            }
        return out
