"""Bounded admission queues with pluggable shed policies.

Requests the limiter chain throttles wait here instead of being lost
outright.  The queue is *bounded*: when it is full, a shed policy picks
a deterministic victim among the queued entries plus the newcomer:

* ``drop-newest`` — refuse the newcomer (classic tail drop);
* ``drop-oldest`` — shed the longest-queued entry, admit the newcomer
  (head drop: old requests are the most likely to be stale);
* ``deadline-aware`` — shed the entry with the *most* deadline slack
  (largest :attr:`~repro.sim.online.EntanglementRequest.last_start_slot`);
  the queue also drains earliest-deadline-first (EDF);
* ``lowest-rate-first`` — shed the entry with the lowest expected
  entanglement value, where value is the Eq. (1) channel-rate estimate
  from :func:`group_log_rate_estimate`; the queue drains
  highest-value-first.
* ``weighted-fair`` — multi-tenant fairness: shed from the tenant that
  has absorbed the least ``shed_fraction × weight`` so far, never from
  a contract-compliant tenant while a non-compliant one is present
  (anti-starvation); needs an
  :class:`~repro.tenancy.slo.SLORegistry` (the ``fairness`` argument).
  The queue drains most-pain-absorbed-first.

All victim selection and drain ordering is deterministic (ties break on
arrival sequence), so same-seed runs shed identically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import QuantumNetwork
    from repro.sim.online import EntanglementRequest
    from repro.tenancy.slo import SLORegistry

logger = logging.getLogger("repro.admission.queue")

#: Shed-policy names (the only values :class:`AdmissionQueue` accepts).
DROP_NEWEST = "drop-newest"
DROP_OLDEST = "drop-oldest"
DEADLINE_AWARE = "deadline-aware"
LOWEST_VALUE = "lowest-rate-first"
WEIGHTED_FAIR = "weighted-fair"
SHED_POLICIES = (
    DROP_NEWEST,
    DROP_OLDEST,
    DEADLINE_AWARE,
    LOWEST_VALUE,
    WEIGHTED_FAIR,
)


@dataclass(frozen=True)
class QueueEntry:
    """One throttled request parked in the admission queue."""

    request: "EntanglementRequest"
    enqueued_slot: int
    seq: int
    value: float = 0.0

    @property
    def name(self) -> str:
        return self.request.name


def group_log_rate_estimate(
    network: "QuantumNetwork", users: Iterable[Hashable]
) -> float:
    """Optimistic Eq. (1) value estimate for a user group.

    Sums the best-channel log-rates along the sorted-user chain on an
    idle network (capacity ignored) — an upper-bound proxy for the
    group's achievable tree rate, cheap enough to compute per request.
    Every pair searches one idle ledger built here, so its
    blocked-switch mask is built once per estimate.  Returns ``-inf``
    when any consecutive pair is unconnectable.
    """
    from repro.core.channel import find_best_channel
    from repro.core.ledger import CapacityLedger

    idle = CapacityLedger.from_network(network)
    ordered = sorted(users, key=repr)
    total = 0.0
    for source, target in zip(ordered, ordered[1:]):
        channel = find_best_channel(network, source, target, idle)
        if channel is None:
            return float("-inf")
        total += channel.log_rate
    return total


def request_value_fn(
    network: "QuantumNetwork",
) -> Callable[["EntanglementRequest"], float]:
    """A cached request → expected-log-rate valuer over *network*.

    The estimate depends only on the user set, so repeated requests for
    the same group (the common case under overload) hit the cache.
    """
    cache: Dict[FrozenSet[Hashable], float] = {}

    def value(request: "EntanglementRequest") -> float:
        key = frozenset(request.users)
        cached = cache.get(key)
        if cached is None:
            cached = group_log_rate_estimate(network, request.users)
            cache[key] = cached
        return cached

    return value


class AdmissionQueue:
    """Bounded, shed-policy-governed holding pen for throttled requests.

    Args:
        maxsize: Queue capacity (>= 1).
        shed_policy: One of :data:`SHED_POLICIES`.
        value_fn: Request valuer, required for ``lowest-rate-first``
            (see :func:`request_value_fn`); ignored otherwise.
        fairness: Tenant account book for ``weighted-fair`` shedding
            (share it with the admission controller so victim
            selection sees live shed fractions); a fresh default
            registry — every tenant on the default contract — is
            created when omitted.
    """

    def __init__(
        self,
        maxsize: int,
        shed_policy: str = DROP_NEWEST,
        value_fn: Optional[Callable[["EntanglementRequest"], float]] = None,
        fairness: Optional["SLORegistry"] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {shed_policy!r}; "
                f"choose from {SHED_POLICIES}"
            )
        if shed_policy == LOWEST_VALUE and value_fn is None:
            raise ValueError(
                f"{LOWEST_VALUE!r} needs a value_fn "
                "(see request_value_fn)"
            )
        if shed_policy == WEIGHTED_FAIR and fairness is None:
            from repro.tenancy.slo import SLORegistry

            fairness = SLORegistry()
        self.maxsize = maxsize
        self.shed_policy = shed_policy
        self.value_fn = value_fn
        self.fairness = fairness
        self._entries: List[QueueEntry] = []
        self._seq = 0
        self.peak_depth = 0
        self.sheds = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._entries)

    @property
    def fill(self) -> float:
        """Occupancy fraction in [0, 1] (the backpressure input)."""
        return len(self._entries) / self.maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self._entries)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def offer(
        self, request: "EntanglementRequest", slot: int
    ) -> Tuple[bool, Optional[QueueEntry]]:
        """Try to park *request*; shed a victim when full.

        Returns ``(queued, shed_entry)``: *queued* says whether the
        newcomer is now in the queue; *shed_entry* is the entry the
        shed policy evicted (possibly the newcomer itself, in which
        case ``queued`` is False), or ``None`` when nothing was shed.
        """
        entry = QueueEntry(
            request=request,
            enqueued_slot=slot,
            seq=self._seq,
            value=self.value_fn(request) if self.value_fn else 0.0,
        )
        self._seq += 1
        if len(self._entries) < self.maxsize:
            self._entries.append(entry)
            self.peak_depth = max(self.peak_depth, len(self._entries))
            return True, None
        victim = self._pick_victim(entry, slot)
        self.sheds += 1
        if victim is entry:
            logger.debug(
                "queue full: shedding newcomer %s (%s)",
                entry.name,
                self.shed_policy,
            )
            return False, entry
        self._entries.remove(victim)
        self._entries.append(entry)
        self.peak_depth = max(self.peak_depth, len(self._entries))
        logger.debug(
            "queue full: shed %s for newcomer %s (%s)",
            victim.name,
            entry.name,
            self.shed_policy,
        )
        return True, victim

    def _pick_victim(self, newcomer: QueueEntry, slot: int) -> QueueEntry:
        """Deterministic victim among queued entries + *newcomer*."""
        if self.shed_policy == DROP_NEWEST:
            return newcomer
        if self.shed_policy == DROP_OLDEST:
            return min(self._entries, key=lambda e: e.seq)
        pool = self._entries + [newcomer]
        if self.shed_policy == DEADLINE_AWARE:
            # Most slack goes first; newest sheds on ties.
            return max(
                pool, key=lambda e: (e.request.last_start_slot, e.seq)
            )
        if self.shed_policy == WEIGHTED_FAIR:
            from repro.tenancy.fairness import pick_weighted_fair_victim

            return pick_weighted_fair_victim(pool, self.fairness, slot)
        # LOWEST_VALUE: cheapest expected rate goes first; newest on ties.
        return min(pool, key=lambda e: (e.value, -e.seq))

    def expired(self, slot: int) -> List[QueueEntry]:
        """Remove and return entries that can no longer start by *slot*."""
        overdue = [
            e for e in self._entries if e.request.last_start_slot < slot
        ]
        if overdue:
            self._entries = [
                e
                for e in self._entries
                if e.request.last_start_slot >= slot
            ]
            self.expirations += len(overdue)
        return sorted(overdue, key=lambda e: e.seq)

    def drain_order(self) -> List[QueueEntry]:
        """Entries in dequeue-priority order (a snapshot, not a pop)."""
        if self.shed_policy == DEADLINE_AWARE:
            return sorted(
                self._entries,
                key=lambda e: (e.request.last_start_slot, e.seq),
            )
        if self.shed_policy == LOWEST_VALUE:
            return sorted(self._entries, key=lambda e: (-e.value, e.seq))
        if self.shed_policy == WEIGHTED_FAIR:
            from repro.tenancy.fairness import weighted_fair_drain_order

            return weighted_fair_drain_order(self._entries, self.fairness)
        return sorted(self._entries, key=lambda e: e.seq)

    def remove(self, entry: QueueEntry) -> None:
        """Take *entry* out of the queue (it was drained)."""
        self._entries.remove(entry)

    def reset(self) -> None:
        self._entries.clear()
        self._seq = 0
        self.peak_depth = 0
        self.sheds = 0
        self.expirations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdmissionQueue(depth={len(self._entries)}/{self.maxsize}, "
            f"policy={self.shed_policy!r})"
        )
