"""Deterministic memoization of Algorithm-1 channel searches.

Every solver, baseline, and serving loop in the repo funnels through
:func:`repro.core.channel.dijkstra`.  Across one experiment sweep the
same search is recomputed thousands of times: the five plotted methods
all open with identical full-capacity searches on the same network, a
qubit-budget sweep (fig8a) regenerates the *same* fiber plant per trial
index, and the online scheduler re-plans over a slowly-changing residual
state.  :class:`ChannelCache` memoizes the ``(dist, prev)`` result of
each search under an **exact** key, so a cache hit is provably
byte-identical to a recomputation:

* **graph fingerprint** — :meth:`QuantumNetwork.fingerprint` with
  ``scope="routing"``: a content hash over everything the search weights
  read (node ids/kinds, fiber keys/lengths, ``alpha``, ``swap_prob``).
  Mutating the topology changes the fingerprint, so stale entries can
  never be hit.
* **blocked-switch signature** — the search reads residual capacities
  only through the predicate "has the switch at least 2 free qubits?"
  (Algorithm 1, line 11).  The key therefore carries the *set of blocked
  switches*, not the raw counts: two residual states that agree on the
  predicate share cache entries, which is exactly when their search
  results coincide.
* **search shape** — source vertex, forbidden-fiber set (Yen-style spur
  searches, the edge-removal study) and the ``allow_switch_source``
  flag.

Entries are LRU-bounded.  Invalidation is wired into the places the
topology changes: :class:`~repro.network.graph.QuantumNetwork` notifies
on structural mutation, and :class:`~repro.resilience.faults.
FaultInjector` notifies when structural faults fire or repair.
(Correctness never depends on these hooks — the exact key already
guarantees it — they bound staleness so dead entries do not crowd live
ones out of the LRU window.)  Residual capacity needs no hook: a
reservation that flips a switch's relay polarity leaves the entries
keyed under the old polarity valid, and they hit again once the switch
flips back.

Activation mirrors the metrics registry: hot paths consult the
module-level *active cache* (one ``None`` check when disabled)::

    from repro.exec import cache as exec_cache

    with exec_cache.caching() as cache:
        run_experiment(config)
    print(cache.stats())

Metrics (``repro.exec.cache.hits`` / ``.misses`` / ``.evictions`` /
``.invalidations``) are published to the active
:class:`~repro.obs.metrics.MetricsRegistry`; see docs/PARALLELISM.md for
the catalog.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import repro.obs.metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import QuantumNetwork

__all__ = [
    "CacheStats",
    "ChannelCache",
    "INVALIDATION_CAUSES",
    "active",
    "enable",
    "disable",
    "caching",
    "bypassed",
]

#: Minimum free qubits a switch needs to relay a channel (Def. 3);
#: mirrors ``repro.core.ledger.QUBITS_PER_CHANNEL`` (not imported:
#: ``repro.core`` imports this module).
_RELAY_QUBITS = 2

#: A fully-resolved cache key: (routing fingerprint, source, blocked
#: switches, forbidden fiber keys, allow_switch_source).
CacheKey = Tuple[
    str,
    Hashable,
    FrozenSet[Hashable],
    FrozenSet[Tuple[Hashable, Hashable]],
    bool,
]

#: A cached search result: the read-only (dist, prev) maps of one
#: Dijkstra run.
CacheValue = Tuple[Mapping[Hashable, float], Mapping[Hashable, Hashable]]


#: The invalidation causes broken out in :class:`CacheStats`.
INVALIDATION_CAUSES = (
    "graph_fingerprint",
    "switch_region",
    "manual",
)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`ChannelCache`.

    ``hit_rate`` is hits over lookups (0.0 before the first lookup).
    ``invalidations_by_cause`` breaks the invalidation total out by why
    entries were dropped (see :data:`INVALIDATION_CAUSES`), so the
    region-scoping win of the incremental layer stays measurable.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    max_entries: int = 0
    invalidations_by_cause: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def cause(self, name: str) -> int:
        """Invalidations attributed to *name* (0 when never seen)."""
        return self.invalidations_by_cause.get(name, 0)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated between *since* and this snapshot."""
        causes = {
            cause: count - since.invalidations_by_cause.get(cause, 0)
            for cause, count in self.invalidations_by_cause.items()
            if count - since.invalidations_by_cause.get(cause, 0)
        }
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
            invalidations=self.invalidations - since.invalidations,
            entries=self.entries,
            max_entries=self.max_entries,
            invalidations_by_cause=causes,
        )

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (aggregating per-worker cache stats)."""
        causes = dict(self.invalidations_by_cause)
        for cause, count in other.invalidations_by_cause.items():
            causes[cause] = causes.get(cause, 0) + count
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            entries=max(self.entries, other.entries),
            max_entries=max(self.max_entries, other.max_entries),
            invalidations_by_cause=causes,
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
            "invalidations_by_cause": {
                cause: self.invalidations_by_cause[cause]
                for cause in sorted(self.invalidations_by_cause)
            },
        }


class ChannelCache:
    """LRU-bounded, exact-key memo of Algorithm-1 search results.

    Thread-safe (the solver watchdog runs solvers on worker threads).
    Values are the search's own read-only ``(dist, prev)`` mappings,
    stored and returned as they are: nobody can write to them, so the
    caller and the cache cannot corrupt each other through them.

    Args:
        max_entries: LRU bound on resident entries (>= 1).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, CacheValue]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._invalidations_by_cause: Dict[str, int] = {}
        #: Optional :class:`~repro.incremental.warmstart.WarmStartIndex`
        #: consulted (via :meth:`warm_lookup`) after an exact-key miss
        #: and fed by :meth:`put`.  ``None`` disables warm starts.
        self.warmstart = None

    # ------------------------------------------------------------------
    # Key derivation
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(
        network: "QuantumNetwork",
        qubits: Mapping[Hashable, int],
        source: Hashable,
        forbidden_fibers: Optional[Set[Tuple[Hashable, Hashable]]] = None,
        allow_switch_source: bool = False,
    ) -> CacheKey:
        """The exact cache key of one search.

        *qubits* is the :class:`~repro.core.ledger.CapacityLedger` the
        search will consult.

        The routing fingerprint sorts fibers, so the key ignores
        adjacency order, while the search breaks equal-cost ties by
        adjacency order.  A caller that removes and re-adds a fiber must
        call :meth:`~repro.network.graph.QuantumNetwork.align_fiber_order`
        before a cached search; otherwise a hit can return a tie
        resolved under the old row order.
        """
        blocked = frozenset(
            switch
            for switch in network.switch_ids
            if qubits.get(switch, 0) < _RELAY_QUBITS
        )
        forbidden = (
            frozenset(forbidden_fibers) if forbidden_fibers else frozenset()
        )
        return (
            network.fingerprint(scope="routing"),
            source,
            blocked,
            forbidden,
            allow_switch_source,
        )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[CacheValue]:
        """The cached ``(dist, prev)`` for *key*, or ``None`` on a miss.

        Returns the stored read-only mappings; hits refresh LRU
        recency.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                hit = True
                dist, prev = value
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc(
                "repro.exec.cache.hits" if hit else "repro.exec.cache.misses"
            )
        if not hit:
            return None
        return dist, prev

    def put(self, key: CacheKey, value: CacheValue) -> None:
        """Store ``(dist, prev)`` under *key*, evicting LRU overflow.

        Also records the result in the attached warm-start index (if
        any), so later searches in the same family can reuse it across
        blocked-set drift.
        """
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        warmstart = self.warmstart
        if warmstart is not None:
            warmstart.record(key, value)
        if evicted:
            metrics = obs_metrics.active()
            if metrics is not None:
                metrics.inc("repro.exec.cache.evictions", evicted)

    def warm_lookup(
        self, key: CacheKey, network: "QuantumNetwork"
    ) -> Optional[CacheValue]:
        """Provably-identical result from the warm-start index, or None.

        Consulted by the channel search after an exact-key miss; a warm
        hit is re-stored under *key* so the exact cache serves repeats.
        """
        warmstart = self.warmstart
        if warmstart is None:
            return None
        value = warmstart.lookup(key, network)
        if value is None:
            return None
        self.put(key, value)
        return value

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _drop(self, keys, cause: str) -> int:
        """Remove *keys* (already materialized) and count invalidations."""
        for key in keys:
            del self._entries[key]
        self._invalidations += len(keys)
        if keys:
            self._invalidations_by_cause[cause] = (
                self._invalidations_by_cause.get(cause, 0) + len(keys)
            )
        return len(keys)

    def _publish_invalidations(self, count: int, cause: str) -> None:
        if count:
            metrics = obs_metrics.active()
            if metrics is not None:
                metrics.inc("repro.exec.cache.invalidations", count)
                metrics.inc(
                    f"repro.exec.cache.invalidations.{cause}", count
                )

    def invalidate_graph(
        self, fingerprint: str, cause: str = "graph_fingerprint"
    ) -> int:
        """Drop every entry computed over *fingerprint* (routing scope).

        Called when a topology mutates or a structural fault fires: the
        mutated graph hashes differently, so these entries can only be
        hit again if the exact previous topology is restored — usually
        never.  Returns the number of entries dropped.
        """
        with self._lock:
            doomed = [k for k in self._entries if k[0] == fingerprint]
            dropped = self._drop(doomed, cause)
        self._publish_invalidations(dropped, cause)
        return dropped

    def invalidate_region(
        self,
        nodes: Iterable[Hashable],
        fingerprint: Optional[str] = None,
    ) -> int:
        """Drop entries plausibly stranded by a change inside *nodes*.

        The incremental delta layer calls this instead of
        :meth:`invalidate_graph` on single-element structural events:
        only entries whose source lies in the region or whose
        blocked-set intersects it are dropped.  *fingerprint* (when
        given) further restricts the sweep to entries computed over that
        routing fingerprint.  Correctness never depends on the choice —
        exact keys already guarantee stale entries cannot be hit — this
        only trades LRU hygiene for retained useful entries.  Returns
        the number of entries dropped.
        """
        region = frozenset(nodes)
        with self._lock:
            doomed = [
                k
                for k in self._entries
                if (fingerprint is None or k[0] == fingerprint)
                and (k[1] in region or not region.isdisjoint(k[2]))
            ]
            dropped = self._drop(doomed, "switch_region")
        self._publish_invalidations(dropped, "switch_region")
        return dropped

    def invalidate_all(self, cause: str = "manual") -> int:
        """Drop everything (e.g. on an unattributable mutation)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._invalidations += count
            if count:
                self._invalidations_by_cause[cause] = (
                    self._invalidations_by_cause.get(cause, 0) + count
                )
        self._publish_invalidations(count, cause)
        return count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Snapshot of the cache's counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                max_entries=self.max_entries,
                invalidations_by_cause=dict(self._invalidations_by_cause),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"ChannelCache(entries={s.entries}/{s.max_entries}, "
            f"hits={s.hits}, misses={s.misses}, "
            f"hit_rate={s.hit_rate:.1%})"
        )


# ----------------------------------------------------------------------
# Active-cache plumbing (module-level so the disabled check on the
# search hot path is one global load + None comparison).
# ----------------------------------------------------------------------
_active_cache: Optional[ChannelCache] = None
_state_lock = threading.Lock()


def active() -> Optional[ChannelCache]:
    """The cache consulted by channel searches, or ``None`` if disabled."""
    return _active_cache


def enable(cache: Optional[ChannelCache] = None) -> ChannelCache:
    """Route channel searches through *cache* (a new one if omitted)."""
    global _active_cache
    with _state_lock:
        _active_cache = cache if cache is not None else ChannelCache()
        return _active_cache


def disable() -> Optional[ChannelCache]:
    """Stop caching; returns the cache that was active (if any)."""
    global _active_cache
    with _state_lock:
        cache, _active_cache = _active_cache, None
        return cache


@contextmanager
def caching(
    cache: Optional[ChannelCache] = None,
) -> Iterator[ChannelCache]:
    """Scope channel-search caching; restores the prior state on exit.

    Nested scopes compose: the innermost cache wins while its block is
    open and the outer one resumes afterwards.
    """
    global _active_cache
    with _state_lock:
        previous = _active_cache
        current = cache if cache is not None else ChannelCache()
        _active_cache = current
    try:
        yield current
    finally:
        with _state_lock:
            _active_cache = previous


@contextmanager
def bypassed() -> Iterator[None]:
    """Scope with no active cache; restores the prior one on exit.

    For callers whose searches never repeat an exact key, such as the
    incremental router: every structural event changes the routing
    fingerprint and every capacity crossing changes the blocked set, so
    a lookup would only pay for its key.
    """
    global _active_cache
    with _state_lock:
        previous, _active_cache = _active_cache, None
    try:
        yield
    finally:
        with _state_lock:
            _active_cache = previous
