"""The delta bus: typed change events instead of fingerprint bumps.

Before this layer existed, every structural mutation told the channel
cache "the world changed" by invalidating the *whole* routing
fingerprint (``ChannelCache.invalidate_graph``) — a single fiber cut
evicted every cached search over that topology.  The bus replaces the
bump with a typed :class:`~repro.incremental.events.DeltaEvent` flow:

* :meth:`QuantumNetwork._content_changed <repro.network.graph.
  QuantumNetwork._content_changed>` publishes the mutation it just
  performed;
* :class:`~repro.resilience.faults.FaultInjector` publishes fire/repair
  events.

Capacity-crossing events come only from the churn streams of
:func:`repro.sim.workload.generate_churn`; the ledger publishes nothing.

Subscribers (the incremental router, tests) see the raw stream; the bus
also performs the cache hygiene itself, scoped by policy:

* ``scope="region"`` (the new default while a bus is active) — drop only
  entries whose source or blocked-set intersects the changed element's
  switch neighborhood (:func:`~repro.extensions.recovery.region_of`);
* ``scope="fingerprint"`` — reproduce the legacy whole-fingerprint bump
  (kept selectable so the region-scoping win stays measurable; the churn
  benchmark runs both and compares invalidation counts).

Correctness never depends on either policy: cache keys are exact
(fingerprint + blocked set), so a stale entry can never be *hit* — the
policies only decide how eagerly dead entries stop crowding the LRU
window.

Bulk rebuilds of throwaway topology copies (``apply_failures``) run
under :meth:`DeltaBus.suspended` so a damaged-view reconstruction does
not masquerade as a stream of real faults.

Activation mirrors the metrics/cache registries::

    from repro.incremental import delta as incremental_delta

    with incremental_delta.tracking(scope="region") as bus:
        run_churn(...)
    print(bus.delta.summary())
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import repro.obs.metrics as obs_metrics
from repro.exec import cache as exec_cache
from repro.extensions.recovery import region_of
from repro.incremental.events import DeltaEvent, DeltaKind

__all__ = [
    "GraphDelta",
    "DeltaBus",
    "region_of",
    "active",
    "enable",
    "disable",
    "tracking",
]


class GraphDelta:
    """An ordered accumulation of :class:`DeltaEvent`.

    The bus appends every published event here; consumers drain it
    between solver consultations (:meth:`take`) or inspect the running
    totals (:meth:`summary`).
    """

    def __init__(self, events: Iterable[DeltaEvent] = ()) -> None:
        self._events: Deque[DeltaEvent] = deque(events)

    def append(self, event: DeltaEvent) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[DeltaEvent]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DeltaEvent]:
        return iter(self._events)

    def take(self) -> Tuple[DeltaEvent, ...]:
        """Drain and return all accumulated events (oldest first)."""
        drained = tuple(self._events)
        self._events.clear()
        return drained

    def clear(self) -> None:
        self._events.clear()

    @property
    def structural(self) -> Tuple[DeltaEvent, ...]:
        return tuple(e for e in self._events if e.structural)

    def summary(self) -> Dict[str, int]:
        """Event counts by kind (stable key order)."""
        counts: Dict[str, int] = {}
        for kind in DeltaKind:
            n = sum(1 for e in self._events if e.kind is kind)
            if n:
                counts[kind.value] = n
        return counts


class DeltaBus:
    """Receives typed deltas from the mutation hooks and applies policy.

    Args:
        scope: Cache-hygiene policy for structural events —
            ``"region"`` (neighborhood-scoped invalidation) or
            ``"fingerprint"`` (legacy whole-fingerprint invalidation).
        radius: Fiber-hop radius of :func:`region_of` under the region
            scope.
    """

    SCOPES = ("region", "fingerprint")

    def __init__(self, scope: str = "region", radius: int = 1) -> None:
        if scope not in self.SCOPES:
            raise ValueError(
                f"scope must be one of {self.SCOPES}, got {scope!r}"
            )
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        self.scope = scope
        self.radius = radius
        self.delta = GraphDelta()
        self._subscribers: List[Callable[[DeltaEvent], None]] = []
        self._suspend_depth = 0
        self._lock = threading.RLock()
        self.events_published = 0
        self.events_suppressed = 0

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[DeltaEvent], None]) -> None:
        """Register *callback* to run synchronously on every publish."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # Suppression (bulk rebuilds of throwaway copies)
    # ------------------------------------------------------------------
    @property
    def is_suspended(self) -> bool:
        return self._suspend_depth > 0

    @contextmanager
    def suspended(self) -> Iterator["DeltaBus"]:
        """Swallow publishes inside the block (re-entrant).

        Used around :func:`repro.extensions.recovery.apply_failures`'s
        internal mutations: rebuilding a damaged *copy* replays cuts
        that were already published when the faults actually fired, and
        must not double-count events or re-invalidate cache regions.
        """
        with self._lock:
            self._suspend_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._suspend_depth -= 1

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        event: DeltaEvent,
        network=None,
        fingerprint: Optional[str] = None,
    ) -> bool:
        """Record *event*, notify subscribers, and run cache hygiene.

        Args:
            event: The change that just happened.
            network: The graph the change applies to, *post-mutation*
                (needed to compute the region under the region scope).
            fingerprint: The routing fingerprint whose cache entries the
                change strands (the *pre-mutation* fingerprint for
                topology mutations, the injector network's fingerprint
                for fault events).  ``None`` widens region invalidation
                to all fingerprints and degrades the fingerprint scope
                to :meth:`ChannelCache.invalidate_all`.

        Returns ``False`` when the bus is suspended (nothing recorded).
        """
        with self._lock:
            if self._suspend_depth > 0:
                self.events_suppressed += 1
                return False
            self.delta.append(event)
            self.events_published += 1
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("repro.incremental.events.published")
            metrics.inc(
                f"repro.incremental.events.kind.{event.kind.value}"
            )
        for callback in self._subscribers:
            callback(event)
        if event.structural:
            self._structural_hygiene(event, network, fingerprint)
        # Capacity crossings need no hygiene: exact cache keys carry the
        # blocked set, so entries under the old polarity stay valid.
        return True

    def _structural_hygiene(
        self,
        event: DeltaEvent,
        network,
        fingerprint: Optional[str],
    ) -> None:
        cache = exec_cache.active()
        if cache is None:
            return
        if self.scope == "region" and network is not None:
            region = region_of(
                network, event.element_nodes(), self.radius
            )
            cache.invalidate_region(region, fingerprint=fingerprint)
        elif fingerprint is not None:
            cache.invalidate_graph(fingerprint)
        else:
            cache.invalidate_all()


# ----------------------------------------------------------------------
# Active-bus plumbing (module-level, mirroring obs.metrics / exec.cache
# so the disabled check on mutation hot paths is one None comparison).
# ----------------------------------------------------------------------
_active_bus: Optional[DeltaBus] = None
_state_lock = threading.Lock()


def active() -> Optional[DeltaBus]:
    """The bus mutation hooks publish to, or ``None`` when disabled."""
    return _active_bus


def enable(bus: Optional[DeltaBus] = None) -> DeltaBus:
    """Route mutation events through *bus* (a new one if omitted)."""
    global _active_bus
    with _state_lock:
        _active_bus = bus if bus is not None else DeltaBus()
        return _active_bus


def disable() -> Optional[DeltaBus]:
    """Stop delta tracking; returns the bus that was active (if any)."""
    global _active_bus
    with _state_lock:
        bus, _active_bus = _active_bus, None
        return bus


@contextmanager
def tracking(
    bus: Optional[DeltaBus] = None,
    scope: str = "region",
    radius: int = 1,
) -> Iterator[DeltaBus]:
    """Scope delta tracking; restores the prior state on exit.

    Nested scopes compose like :func:`repro.exec.cache.caching`: the
    innermost bus wins while its block is open.
    """
    global _active_bus
    with _state_lock:
        previous = _active_bus
        current = (
            bus if bus is not None else DeltaBus(scope=scope, radius=radius)
        )
        _active_bus = current
    try:
        yield current
    finally:
        with _state_lock:
            _active_bus = previous
