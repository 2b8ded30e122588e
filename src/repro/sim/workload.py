"""Request-workload generation for the online scheduler.

Synthesizes :class:`~repro.sim.online.EntanglementRequest` streams with
controlled statistics, so capacity-planning studies
(``ext-online-load``, ``examples/online_service.py``) can dial traffic
shape independently of the topology:

* **Poisson arrivals** with configurable rate;
* **group sizes** from a truncated geometric distribution (most
  requests are pairs, a tail wants many-user GHZ-style groups);
* **hotspot skew** — a Zipf-like preference for popular users, so some
  switches see concentrated demand (the hard case for budgets).

The streams are *stream-exact*: every weighted draw goes through
:class:`~repro.utils.rng.WeightedIndex`, which replays numpy's
``Generator.choice`` draw for draw but validates its weights once per
stream, so a seed gives the same stream and final generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

import numpy as np

from repro.sim.online import EntanglementRequest
from repro.utils.rng import RngLike, WeightedIndex, ensure_rng
from repro.utils.validation import require_positive, require_probability


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical shape of a request stream.

    Attributes:
        arrival_rate: Mean requests per slot (Poisson).
        horizon: Number of slots over which requests arrive.
        mean_group_size: Mean of the truncated-geometric group size
            (minimum 2).
        max_group_size: Hard cap on group size.
        mean_hold: Mean holding time in slots (geometric, minimum 1).
        max_wait: Patience of blocked requests, in slots.
        hotspot_skew: 0 = uniform user popularity; larger values
            concentrate requests on few users (Zipf exponent).
        n_tenants: Number of tenant labels to spread requests over
            (uniformly at random); 0 leaves requests untenanted and
            the rng stream byte-identical to older versions.  Tenants
            are what per-tenant admission limiters key on.
        tenant_skew: Zipf exponent over tenant popularity: 0 keeps the
            historical uniform draw (and rng stream); larger values
            concentrate traffic on the low-numbered tenants —
            ``tenant-0`` becomes the heavy hitter the fairness gates
            stress.  Requires ``n_tenants > 0`` to have any effect.
        diurnal_amplitude: Relative swing of a sinusoidal load shape in
            [0, 1]: the per-slot arrival rate becomes ``rate × (1 +
            a·sin(2π·slot/period))``.  0 keeps the flat Poisson rate
            (and the historical rng stream).
        diurnal_period: Slots per diurnal cycle (>= 2).
    """

    arrival_rate: float = 0.5
    horizon: int = 50
    mean_group_size: float = 2.5
    max_group_size: int = 5
    mean_hold: float = 4.0
    max_wait: int = 0
    hotspot_skew: float = 0.0
    n_tenants: int = 0
    tenant_skew: float = 0.0
    diurnal_amplitude: float = 0.0
    diurnal_period: int = 24

    def __post_init__(self) -> None:
        require_positive(self.arrival_rate, "arrival_rate")
        require_positive(self.mean_hold, "mean_hold")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.mean_group_size < 2:
            raise ValueError("mean_group_size must be >= 2")
        if self.max_group_size < 2:
            raise ValueError("max_group_size must be >= 2")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.hotspot_skew < 0:
            raise ValueError("hotspot_skew must be >= 0")
        if self.n_tenants < 0:
            raise ValueError("n_tenants must be >= 0")
        if self.tenant_skew < 0:
            raise ValueError("tenant_skew must be >= 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.diurnal_period < 2:
            raise ValueError("diurnal_period must be >= 2")


def user_popularity(
    n_users: int, skew: float
) -> np.ndarray:
    """Zipf-style popularity weights over *n_users* (normalized)."""
    if n_users < 1:
        raise ValueError("need at least one user")
    ranks = np.arange(1, n_users + 1, dtype=float)
    if skew == 0.0:
        weights = np.ones(n_users)
    else:
        weights = ranks ** (-skew)
    return weights / weights.sum()


def generate_workload(
    users: Sequence[Hashable],
    spec: Optional[WorkloadSpec] = None,
    rng: RngLike = None,
) -> List[EntanglementRequest]:
    """Draw a request stream over *users* according to *spec*.

    Deterministic under a seed; request names are ``"req-<k>"`` in
    arrival order.
    """
    if len(users) < 2:
        raise ValueError("need at least 2 users")
    spec = spec or WorkloadSpec()
    generator = ensure_rng(rng)
    popularity = WeightedIndex(
        user_popularity(len(users), spec.hotspot_skew)
    )
    tenant_popularity = None
    if spec.n_tenants > 0 and spec.tenant_skew > 0:
        tenant_popularity = WeightedIndex(
            user_popularity(spec.n_tenants, spec.tenant_skew)
        )

    requests: List[EntanglementRequest] = []
    counter = 0
    max_size = min(spec.max_group_size, len(users))
    # Geometric(q) on {0,1,...} shifted by 2, truncated at max_size.
    geometric_p = 1.0 / max(spec.mean_group_size - 1.0, 1e-9)
    geometric_p = min(max(geometric_p, 1e-6), 1.0)
    hold_p = 1.0 / max(spec.mean_hold, 1.0)

    for slot in range(spec.horizon):
        # Diurnal shape: amplitude 0 passes the flat rate through, so
        # the Poisson draw (and the whole rng stream) matches older
        # versions byte for byte.
        lam = spec.arrival_rate
        if spec.diurnal_amplitude > 0:
            lam *= 1.0 + spec.diurnal_amplitude * math.sin(
                2.0 * math.pi * slot / spec.diurnal_period
            )
        n_arrivals = int(generator.poisson(lam))
        for _ in range(n_arrivals):
            size = 2 + int(generator.geometric(geometric_p)) - 1
            size = min(size, max_size)
            members = popularity.draw_distinct(generator, size)
            hold = int(generator.geometric(hold_p))
            tenant = None
            if tenant_popularity is not None:
                tenant = f"tenant-{tenant_popularity.draw(generator)}"
            elif spec.n_tenants > 0:
                tenant = f"tenant-{int(generator.integers(spec.n_tenants))}"
            requests.append(
                EntanglementRequest(
                    name=f"req-{counter}",
                    users=tuple(users[i] for i in members),
                    arrival=slot,
                    hold=max(1, hold),
                    max_wait=spec.max_wait,
                    tenant=tenant,
                )
            )
            counter += 1
    return requests


@dataclass(frozen=True)
class ChurnSpec:
    """Statistical shape of a structural/residual churn stream.

    Drives :func:`generate_churn`, the shared event source behind the
    ``repro incremental`` CLI (``--verify-determinism``) and the
    ``benchmarks/test_incremental.py`` churn benchmark — one generator,
    so the two always exercise identical event streams for a seed.

    Attributes:
        n_faults: Total number of delta events to emit.
        fault_mix: Relative weights over the event families
            ``("fiber", "switch", "capacity")`` — fiber cut/restore
            pairs, switch dark/recover pairs, and capacity-crossing
            polarity flips.  Weights are normalized; a zero weight
            disables the family.
        restore_bias: Probability that, when the chosen family has an
            element currently down, the event restores it rather than
            taking a new element down.  Keeps long streams from
            monotonically draining the topology.
        max_concurrent_down: Cap on simultaneously-failed elements per
            family (new failures are skipped in favor of restores when
            the cap is hit).
    """

    n_faults: int = 50
    fault_mix: Sequence[float] = (0.5, 0.2, 0.3)
    restore_bias: float = 0.5
    max_concurrent_down: int = 4

    def __post_init__(self) -> None:
        if self.n_faults < 0:
            raise ValueError("n_faults must be >= 0")
        mix = tuple(float(w) for w in self.fault_mix)
        if len(mix) != 3:
            raise ValueError(
                "fault_mix needs 3 weights (fiber, switch, capacity), "
                f"got {len(mix)}"
            )
        if any(w < 0 for w in mix) or sum(mix) <= 0:
            raise ValueError("fault_mix weights must be >= 0 and sum > 0")
        object.__setattr__(self, "fault_mix", mix)
        require_probability(self.restore_bias, "restore_bias")
        if self.max_concurrent_down < 1:
            raise ValueError("max_concurrent_down must be >= 1")


def generate_churn(
    network,
    spec: Optional[ChurnSpec] = None,
    rng: RngLike = None,
) -> list:
    """Draw a valid, reproducible delta-event stream for *network*.

    The stream is *stateful-valid*: a fiber is never cut twice without
    an intervening restore, a switch never goes dark twice, capacity
    crossings alternate polarity per switch, and restore events only
    target elements that are currently down.  Deterministic under a
    seed.

    Returns a list of :class:`~repro.incremental.events.DeltaEvent`.
    """
    from repro.incremental.events import DeltaEvent

    spec = spec or ChurnSpec()
    generator = ensure_rng(rng)
    fibers = sorted(
        ((fiber.u, fiber.v) for fiber in network.fibers), key=repr
    )
    switches = sorted(network.switch_ids, key=repr)
    weights = np.asarray(spec.fault_mix, dtype=float)
    if not fibers:
        weights[0] = 0.0
    if not switches:
        weights[1] = weights[2] = 0.0
    if weights.sum() <= 0:
        raise ValueError("network has no elements for the requested mix")
    families = WeightedIndex(weights / weights.sum())

    down_fibers: List[tuple] = []  # insertion-ordered for determinism
    down_switches: List[Hashable] = []
    blocked: List[Hashable] = []
    events: list = []
    for index in range(spec.n_faults):
        family = families.draw(generator)
        restore = bool(generator.random() < spec.restore_bias)
        if family == 0:
            if down_fibers and (
                restore or len(down_fibers) >= spec.max_concurrent_down
            ):
                pick = int(generator.integers(len(down_fibers)))
                u, v = down_fibers.pop(pick)
                events.append(DeltaEvent.fiber_restore(u, v, slot=index))
            else:
                up = [f for f in fibers if f not in down_fibers]
                if not up:
                    continue
                u, v = up[int(generator.integers(len(up)))]
                down_fibers.append((u, v))
                events.append(DeltaEvent.fiber_cut(u, v, slot=index))
        elif family == 1:
            if down_switches and (
                restore or len(down_switches) >= spec.max_concurrent_down
            ):
                pick = int(generator.integers(len(down_switches)))
                switch = down_switches.pop(pick)
                events.append(DeltaEvent.switch_recover(switch, slot=index))
            else:
                up_switches = [
                    s for s in switches if s not in down_switches
                ]
                if not up_switches:
                    continue
                switch = up_switches[
                    int(generator.integers(len(up_switches)))
                ]
                down_switches.append(switch)
                events.append(DeltaEvent.switch_dark(switch, slot=index))
        else:
            if blocked and (
                restore or len(blocked) >= spec.max_concurrent_down
            ):
                pick = int(generator.integers(len(blocked)))
                switch = blocked.pop(pick)
                events.append(
                    DeltaEvent.capacity_crossing(
                        switch, now_blocked=False, slot=index
                    )
                )
            else:
                free = [
                    s
                    for s in switches
                    if s not in blocked and s not in down_switches
                ]
                if not free:
                    continue
                switch = free[int(generator.integers(len(free)))]
                blocked.append(switch)
                events.append(
                    DeltaEvent.capacity_crossing(
                        switch, now_blocked=True, slot=index
                    )
                )
    return events


def offered_load_summary(
    requests: Sequence[EntanglementRequest],
) -> dict:
    """Basic workload statistics (for reports and sanity checks)."""
    if not requests:
        return {
            "n_requests": 0,
            "mean_group_size": 0.0,
            "mean_hold": 0.0,
            "horizon": 0,
        }
    sizes = [len(r.users) for r in requests]
    holds = [r.hold for r in requests]
    return {
        "n_requests": len(requests),
        "mean_group_size": float(np.mean(sizes)),
        "mean_hold": float(np.mean(holds)),
        "horizon": max(r.arrival for r in requests) + 1,
    }
