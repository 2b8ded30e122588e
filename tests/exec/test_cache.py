"""ChannelCache unit tests: keys, LRU, invalidation, stats, metrics."""

from __future__ import annotations

import pytest

import repro.obs.metrics as obs_metrics
from repro.core.channel import best_channels_from, dijkstra, find_best_channel
from repro.core.ledger import CapacityLedger
from repro.exec import cache as exec_cache
from repro.exec.cache import CacheStats, ChannelCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6_scale import run_fig6a
from repro.topology import TopologyConfig, waxman_network

SMALL = TopologyConfig(n_switches=10, n_users=4, avg_degree=4.0)


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    """Each test controls cache activation explicitly."""
    exec_cache.disable()
    yield
    exec_cache.disable()


def _network(seed=11):
    return waxman_network(SMALL, rng=seed)


class TestKeying:
    def test_same_state_same_key(self):
        net = _network()
        qubits = net.residual_qubits()
        u = net.user_ids[0]
        assert ChannelCache.key_for(net, qubits, u) == ChannelCache.key_for(
            net, dict(qubits), u
        )

    def test_key_depends_on_blocked_set_not_counts(self):
        net = _network()
        full = net.residual_qubits()
        # Draining a switch from 4 to 2 qubits keeps the relay predicate
        # true, so the key must not change; dropping below 2 must.
        switch = net.switch_ids[0]
        u = net.user_ids[0]
        drained = dict(full)
        drained[switch] = 2
        blocked = dict(full)
        blocked[switch] = 1
        key_full = ChannelCache.key_for(net, full, u)
        assert ChannelCache.key_for(net, drained, u) == key_full
        assert ChannelCache.key_for(net, blocked, u) != key_full

    def test_key_varies_with_source_forbidden_and_flag(self):
        net = _network()
        qubits = net.residual_qubits()
        u0, u1 = net.user_ids[0], net.user_ids[1]
        fiber = net.fibers[0]
        base = ChannelCache.key_for(net, qubits, u0)
        assert ChannelCache.key_for(net, qubits, u1) != base
        assert (
            ChannelCache.key_for(net, qubits, u0, {fiber.key}) != base
        )
        assert (
            ChannelCache.key_for(net, qubits, u0, None, True) != base
        )

    def test_ledger_usable_as_residual_map(self):
        net = _network()
        ledger = CapacityLedger.from_network(net)
        u = net.user_ids[0]
        assert ChannelCache.key_for(net, ledger, u) == ChannelCache.key_for(
            net, net.residual_qubits(), u
        )


class TestLookupStore:
    def test_get_put_roundtrip_returns_read_only_views(self):
        cache = ChannelCache()
        net = _network()
        u = net.user_ids[0]
        key = ChannelCache.key_for(net, net.residual_qubits(), u)
        assert cache.get(key) is None
        dist, prev = dijkstra(net, u)
        expected = (dict(dist), dict(prev))
        cache.put(key, (dist, prev))
        hit = cache.get(key)
        assert hit == expected
        # Nobody can write to the stored pair, so no caller corrupts it.
        with pytest.raises(TypeError):
            hit[0]["bogus"] = -1.0
        assert cache.get(key) == expected

    def test_lru_eviction_order(self):
        cache = ChannelCache(max_entries=2)
        cache.put(("a",), ({}, {}))
        cache.put(("b",), ({}, {}))
        assert cache.get(("a",)) is not None  # refresh 'a'
        cache.put(("c",), ({}, {}))  # evicts 'b' (least recent)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.get(("c",)) is not None
        assert cache.stats().evictions == 1

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ChannelCache(max_entries=0)


class TestInvalidation:
    def test_invalidate_graph_drops_only_that_fingerprint(self):
        cache = ChannelCache()
        cache.put(("fp1", "s"), ({}, {}))
        cache.put(("fp2", "s"), ({}, {}))
        assert cache.invalidate_graph("fp1") == 1
        assert len(cache) == 1
        assert cache.get(("fp2", "s")) is not None

    def test_invalidate_all(self):
        cache = ChannelCache()
        cache.put(("a",), ({}, {}))
        cache.put(("b",), ({}, {}))
        assert cache.invalidate_all() == 2
        assert len(cache) == 0
        assert cache.stats().invalidations == 2


class TestInvalidationHooks:
    def test_ledger_threshold_crossing_keeps_entries(self):
        net = _network()
        u = net.user_ids[0]
        with exec_cache.caching() as cache:
            ledger = CapacityLedger.from_network(net)
            dijkstra(net, u, ledger)
            switch = net.switch_ids[0]
            # 4 -> 0 free qubits flips the switch to blocked: a search
            # now misses, but the entry under the old polarity stays.
            ledger.reserve({switch: 4})
            dijkstra(net, u, ledger)
            assert len(cache) == 2
            # Flipping back hits the first entry again.
            ledger.release({switch: 4})
            dijkstra(net, u, ledger)
            stats = cache.stats()
            assert (stats.hits, stats.misses) == (1, 2)
            assert stats.invalidations == 0

    def test_graph_mutation_invalidates(self):
        net = _network()
        u = net.user_ids[0]
        with exec_cache.caching() as cache:
            dijkstra(net, u)
            assert len(cache) == 1
            fiber = net.fibers[0]
            net.remove_fiber(fiber.u, fiber.v)
            assert len(cache) == 0
            assert cache.stats().invalidations == 1

    def test_structural_fault_invalidates(self):
        from repro.resilience.faults import (
            FaultEvent,
            FaultInjector,
            FaultKind,
            FaultSchedule,
        )

        net = _network()
        u = net.user_ids[0]
        fiber = net.fibers[0]
        schedule = FaultSchedule(
            [
                FaultEvent(
                    slot=1,
                    kind=FaultKind.TRANSIENT_FLAP,
                    target=(fiber.u, fiber.v),
                    duration=2,
                )
            ]
        )
        injector = FaultInjector(schedule, net)
        with exec_cache.caching() as cache:
            dijkstra(net, u)
            injector.advance(0)  # nothing fired yet
            assert cache.stats().invalidations == 0
            injector.advance(1)  # flap fires: structural change
            assert cache.stats().invalidations == 1
            dijkstra(net, u)
            injector.advance(3)  # flap repairs: structural change again
            assert cache.stats().invalidations == 2

    def test_decoherence_storm_does_not_invalidate(self):
        from repro.resilience.faults import (
            FaultEvent,
            FaultInjector,
            FaultKind,
            FaultSchedule,
        )

        net = _network()
        u = net.user_ids[0]
        schedule = FaultSchedule(
            [
                FaultEvent(
                    slot=0,
                    kind=FaultKind.DECOHERENCE_STORM,
                    duration=2,
                    severity=0.5,
                )
            ]
        )
        injector = FaultInjector(schedule, net)
        with exec_cache.caching() as cache:
            dijkstra(net, u)
            injector.advance(0)
            # Storms scale success probabilities but leave the topology
            # (and thus every cached route) intact.
            assert cache.stats().invalidations == 0
            assert len(cache) == 1


class TestAmbientActivation:
    def test_caching_scope_nesting(self):
        outer = ChannelCache()
        inner = ChannelCache()
        assert exec_cache.active() is None
        with exec_cache.caching(outer):
            assert exec_cache.active() is outer
            with exec_cache.caching(inner):
                assert exec_cache.active() is inner
            assert exec_cache.active() is outer
        assert exec_cache.active() is None

    def test_enable_disable(self):
        cache = exec_cache.enable()
        assert exec_cache.active() is cache
        assert exec_cache.disable() is cache
        assert exec_cache.active() is None

    def test_dijkstra_consults_active_cache(self):
        net = _network()
        u = net.user_ids[0]
        baseline = dijkstra(net, u)
        with exec_cache.caching() as cache:
            first = dijkstra(net, u)
            second = dijkstra(net, u)
        assert first == baseline
        assert second == baseline
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_find_best_channel_identical_under_cache(self):
        net = _network()
        u0, u1 = net.user_ids[0], net.user_ids[1]
        plain = find_best_channel(net, u0, u1)
        with exec_cache.caching():
            warm = find_best_channel(net, u0, u1)
            hit = find_best_channel(net, u0, u1)
        assert plain == warm == hit


class TestStatsAndMetrics:
    def test_stats_delta_and_merge(self):
        a = CacheStats(hits=5, misses=3, evictions=1, invalidations=2)
        b = CacheStats(hits=8, misses=4, evictions=1, invalidations=2)
        delta = b.delta(a)
        assert (delta.hits, delta.misses) == (3, 1)
        merged = a.merged(delta)
        assert (merged.hits, merged.misses) == (8, 4)
        assert a.hit_rate == 5 / 8
        assert CacheStats().hit_rate == 0.0

    def test_metrics_published_under_repro_exec_namespace(self):
        net = _network()
        u = net.user_ids[0]
        registry = obs_metrics.enable()
        try:
            with exec_cache.caching(ChannelCache(max_entries=1)):
                dijkstra(net, u)  # miss
                dijkstra(net, u)  # hit
                dijkstra(net, net.user_ids[1])  # miss + evicts the first
                dijkstra(net, u)  # miss again (was evicted)
            counters = registry.counters()
        finally:
            obs_metrics.disable()
        assert counters["repro.exec.cache.hits"] == 1
        assert counters["repro.exec.cache.misses"] == 3
        assert counters["repro.exec.cache.evictions"] == 2


class TestEntriesHoldFullSearches:
    """A cached search never stops at its caller's targets.

    One entry serves every later caller with the same key, whatever
    targets they read, so a search stored while a cache is active must
    settle every reachable node.
    """

    def test_target_search_stores_a_full_search(self):
        net = _network()
        source = net.user_ids[0]
        uncached = dijkstra(net, source)
        # The nearest user: a search may stop well before the full one.
        target = min(
            (u for u in net.user_ids if u != source and u in uncached[0]),
            key=uncached[0].get,
        )
        stopped = dijkstra(net, source, targets=[target])
        assert len(stopped[0]) < len(uncached[0])
        with exec_cache.caching() as cache:
            best_channels_from(net, source, [target])
            cached = dijkstra(net, source)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert [list(m.items()) for m in cached] == [
            list(m.items()) for m in uncached
        ]

    def test_cached_sweep_hit_and_miss_counts(self):
        config = ExperimentConfig(
            n_switches=10,
            n_users=4,
            n_networks=4,
            seed=11,
            methods=("prim", "nfusion", "eqcast"),
        )
        with exec_cache.caching() as cache:
            run_fig6a(config, user_counts=(3, 4))
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (40, 28)
