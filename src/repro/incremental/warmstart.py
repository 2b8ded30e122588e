"""Warm-started channel searches: frontier reuse across capacity churn.

The channel cache is exact: a search result is reusable only under the
*identical* (fingerprint, source, blocked-set, forbidden, flag) key.
Under capacity churn the blocked set wobbles constantly, so exact keys
keep missing even though most wobbles cannot change the search — the
flipped switch was never reached, or sits beyond the settled frontier.

:class:`WarmStartIndex` keeps, per *search family* (everything in the
key except the blocked set), the most recent ``(blocked, dist, prev)``
and answers a lookup for a *different* blocked set when reuse is
provably byte-identical:

Let ``dist_old`` be the cached result under ``blocked_old`` and let
``blocked_new`` differ.  The cached value is returned verbatim iff

1. every **newly blocked** switch is absent from ``dist_old`` (the old
   search never entered it — blocking it removes nothing the search
   used), and
2. every **newly unblocked** switch has no neighbor that could expand
   into it: no neighbor is the source, and no neighbor is a settled
   relay switch (in ``dist_old`` and unblocked under ``blocked_new``).

**Soundness argument** (docs/INCREMENTAL.md carries the full version):
Dijkstra only ever enters unblocked nodes, so condition 1 guarantees
every node the old run entered remains enterable and every settled
switch keeps its relay capability; condition 2 guarantees no newly
unblocked switch is adjacent to any node the run expands, so it can
never be entered either.  By induction over pop order the heap, ``dist``
and ``prev`` evolve identically — the fresh run would produce the exact
dictionaries already cached.  Reuse therefore preserves byte-for-byte
equality with from-scratch computation, which is what the equivalence
suite (`tests/incremental/test_equivalence.py`) checks end to end.

The index is consulted by :func:`repro.core.channel.dijkstra` *after*
an exact-cache miss, via the :attr:`ChannelCache.warmstart
<repro.exec.cache.ChannelCache.warmstart>` hook; a warm hit is re-stored
under the new exact key so subsequent identical searches hit the fast
path.  Metrics: ``repro.incremental.warmstart.hits`` / ``.misses`` /
``.settled_reused``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

import repro.obs.metrics as obs_metrics

__all__ = ["WarmStartIndex"]

#: Everything in a cache key except the blocked set: (fingerprint,
#: source, forbidden fibers, allow_switch_source).
FamilyKey = Tuple[str, Hashable, FrozenSet, bool]

_RELAY_QUBITS = 2


def _family(key) -> FamilyKey:
    fingerprint, source, _blocked, forbidden, allow = key
    return (fingerprint, source, forbidden, allow)


class WarmStartIndex:
    """Per-family latest search results, reusable across blocked-set drift.

    Args:
        max_families: LRU bound on resident families (>= 1).
    """

    def __init__(self, max_families: int = 512) -> None:
        if max_families < 1:
            raise ValueError(
                f"max_families must be >= 1, got {max_families}"
            )
        self.max_families = max_families
        self._lock = threading.RLock()
        self._families: "OrderedDict[FamilyKey, Tuple[FrozenSet, Mapping, Mapping]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.settled_reused = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    # ------------------------------------------------------------------
    # Write side (fed by ChannelCache.put)
    # ------------------------------------------------------------------
    def record(self, key, value) -> None:
        """Remember *value* as the family's latest result."""
        dist, prev = value
        family = _family(key)
        with self._lock:
            self._families[family] = (key[2], dist, prev)
            self._families.move_to_end(family)
            while len(self._families) > self.max_families:
                self._families.popitem(last=False)

    # ------------------------------------------------------------------
    # Read side (consulted on exact-cache miss)
    # ------------------------------------------------------------------
    def lookup(self, key, network) -> Optional[Tuple[Mapping, Mapping]]:
        """A byte-identical ``(dist, prev)`` for *key*, or ``None``.

        The pair is the recorded search's own read-only mappings.

        Applies the frontier-reuse conditions against the family's
        stored result; any doubt is a miss (reuse must be provable, not
        plausible).
        """
        family = _family(key)
        source = key[1]
        blocked_new = key[2]
        with self._lock:
            entry = self._families.get(family)
            if entry is not None:
                self._families.move_to_end(family)
        if entry is None:
            self._count(hit=False)
            return None
        blocked_old, dist, prev = entry
        reusable = self._frontier_reusable(
            network, source, blocked_old, blocked_new, dist
        )
        if not reusable:
            self._count(hit=False)
            return None
        self._count(hit=True, settled=len(dist))
        return dist, prev

    @staticmethod
    def _frontier_reusable(
        network,
        source: Hashable,
        blocked_old: FrozenSet,
        blocked_new: FrozenSet,
        dist: Mapping,
    ) -> bool:
        for switch in blocked_new - blocked_old:
            if switch in dist:
                return False  # the old run entered it: result changes
        for switch in blocked_old - blocked_new:
            if switch not in network:
                return False  # stale family (defensive; fp should differ)
            for neighbor in network.neighbors(switch):
                if neighbor == source:
                    return False  # the source expands unconditionally
                if (
                    neighbor in dist
                    and network.is_switch(neighbor)
                    and neighbor not in blocked_new
                ):
                    return False  # a settled relay could now enter it
        return True

    def _count(self, hit: bool, settled: int = 0) -> None:
        with self._lock:
            if hit:
                self.hits += 1
                self.settled_reused += settled
            else:
                self.misses += 1
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc(
                "repro.incremental.warmstart.hits"
                if hit
                else "repro.incremental.warmstart.misses"
            )
            if settled:
                metrics.inc(
                    "repro.incremental.warmstart.settled_reused", settled
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def reuse_ratio(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "settled_reused": self.settled_reused,
                "families": len(self._families),
                "max_families": self.max_families,
                "reuse_ratio": self.reuse_ratio,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WarmStartIndex(families={len(self)}/{self.max_families}, "
            f"hits={self.hits}, misses={self.misses})"
        )
