"""Per-cause invalidation accounting on the ChannelCache (satellite).

Every eviction-by-invalidation is attributed to one of
``INVALIDATION_CAUSES``; the totals must always reconcile and export as
``repro.exec.cache.invalidations.<cause>`` metrics.
"""

from __future__ import annotations

import pytest

import repro.obs.metrics as obs_metrics
from repro.exec import cache as exec_cache
from repro.exec.cache import INVALIDATION_CAUSES, CacheStats, ChannelCache


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    exec_cache.disable()
    yield
    exec_cache.disable()


def _key(fingerprint="fp", source="u0", blocked=(), forbidden=(), flag=False):
    return (
        fingerprint,
        source,
        frozenset(blocked),
        frozenset(forbidden),
        flag,
    )


def _fill(cache, n=3, fingerprint="fp"):
    for i in range(n):
        cache.put(_key(fingerprint=fingerprint, source=f"u{i}"), ({}, {}))


class TestCauseAccounting:
    def test_causes_are_the_documented_taxonomy(self):
        assert INVALIDATION_CAUSES == (
            "graph_fingerprint",
            "switch_region",
            "manual",
        )

    def test_graph_fingerprint_cause(self):
        cache = ChannelCache()
        _fill(cache, 3)
        assert cache.invalidate_graph("fp") == 3
        stats = cache.stats()
        assert stats.cause("graph_fingerprint") == 3
        assert stats.invalidations == 3

    def test_switch_region_cause(self):
        cache = ChannelCache()
        cache.put(_key(source="inside"), ({}, {}))
        cache.put(_key(source="outside"), ({}, {}))
        cache.put(_key(source="far", blocked=("inside",)), ({}, {}))
        dropped = cache.invalidate_region({"inside"}, fingerprint="fp")
        assert dropped == 2  # source match + blocked-set intersection
        assert cache.stats().cause("switch_region") == 2

    def test_region_respects_fingerprint_filter(self):
        cache = ChannelCache()
        cache.put(_key(fingerprint="old", source="inside"), ({}, {}))
        cache.put(_key(fingerprint="new", source="inside"), ({}, {}))
        assert cache.invalidate_region({"inside"}, fingerprint="old") == 1
        assert cache.get(_key(fingerprint="new", source="inside")) is not None

    def test_manual_cause(self):
        cache = ChannelCache()
        _fill(cache, 2)
        assert cache.invalidate_all() == 2
        assert cache.stats().cause("manual") == 2

    def test_causes_sum_to_total(self):
        cache = ChannelCache()
        _fill(cache, 3)
        cache.invalidate_graph("fp")
        _fill(cache, 2)
        cache.invalidate_all()
        stats = cache.stats()
        assert (
            sum(stats.invalidations_by_cause.values())
            == stats.invalidations
            == 5
        )

    def test_unknown_cause_reads_zero(self):
        assert ChannelCache().stats().cause("switch_region") == 0


class TestStatsAlgebra:
    def test_delta_subtracts_per_cause_and_drops_zeros(self):
        before = CacheStats(
            invalidations=3,
            invalidations_by_cause={"manual": 2, "graph_fingerprint": 1},
        )
        after = CacheStats(
            invalidations=6,
            invalidations_by_cause={"manual": 2, "graph_fingerprint": 4},
        )
        diff = after.delta(before)
        assert diff.invalidations == 3
        assert diff.invalidations_by_cause == {"graph_fingerprint": 3}

    def test_merged_sums_per_cause(self):
        one = CacheStats(invalidations_by_cause={"manual": 1})
        two = CacheStats(
            invalidations_by_cause={"manual": 2, "switch_region": 5}
        )
        merged = one.merged(two)
        assert merged.invalidations_by_cause == {
            "manual": 3,
            "switch_region": 5,
        }

    def test_to_dict_exports_sorted_causes(self):
        stats = CacheStats(
            invalidations_by_cause={"switch_region": 1, "manual": 2}
        )
        payload = stats.to_dict()
        assert list(payload["invalidations_by_cause"]) == [
            "manual",
            "switch_region",
        ]


class TestMetricsExport:
    def test_per_cause_counters_published(self):
        registry = obs_metrics.enable()
        try:
            cache = ChannelCache()
            _fill(cache, 2)
            cache.invalidate_graph("fp")
            _fill(cache, 1)
            cache.invalidate_all()
        finally:
            obs_metrics.disable()
        counters = registry.counters()
        assert (
            counters["repro.exec.cache.invalidations.graph_fingerprint"]
            == 2
        )
        assert counters["repro.exec.cache.invalidations.manual"] == 1
