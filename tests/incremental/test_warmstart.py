"""WarmStartIndex unit tests: reuse conditions and byte-identity."""

from __future__ import annotations

import pytest

from repro.core.channel import dijkstra
from repro.core.ledger import CapacityLedger
from repro.exec import cache as exec_cache
from repro.exec.cache import ChannelCache
from repro.incremental.warmstart import WarmStartIndex
from repro.network import NetworkBuilder, NetworkParams


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    exec_cache.disable()
    yield
    exec_cache.disable()


def chain_with_spur():
    """alice - s0 - bob, with a spur s0 - s1 - s2 hanging off the relay.

    Blocking s1 hides s2 from every search out of alice: neither ends
    up in ``dist``, which is exactly the frontier-reuse regime.
    """
    return (
        NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
        .user("alice", (0, 0))
        .switch("s0", (1000, 0), qubits=4)
        .user("bob", (2000, 0))
        .switch("s1", (1000, 1000), qubits=4)
        .switch("s2", (1000, 2000), qubits=4)
        .fiber("alice", "s0", 1000.0)
        .fiber("s0", "bob", 1000.0)
        .fiber("s0", "s1", 1000.0)
        .fiber("s1", "s2", 1000.0)
        .build()
    )


def residual(net, **overrides):
    qubits = net.residual_qubits()
    qubits.update(overrides)
    return CapacityLedger(qubits)


class TestFrontierConditions:
    def test_newly_blocked_settled_switch_is_a_miss(self):
        net = chain_with_spur()
        index = WarmStartIndex()
        key_a = ChannelCache.key_for(net, residual(net), "alice")
        dist, prev = dijkstra(net, "alice")
        index.record(key_a, (dist, prev))
        # Blocking s0 (settled and on-path) must not reuse.
        key_b = ChannelCache.key_for(net, residual(net, s0=0), "alice")
        assert index.lookup(key_b, net) is None
        assert index.misses == 1

    def test_newly_blocked_unreached_switch_is_a_hit(self):
        net = chain_with_spur()
        index = WarmStartIndex()
        blocked_s1 = residual(net, s1=0)
        key_a = ChannelCache.key_for(net, blocked_s1, "alice")
        dist, prev = dijkstra(net, "alice", residual=blocked_s1)
        assert "s2" not in dist  # hidden behind the blocked relay
        index.record(key_a, (dist, prev))
        both = residual(net, s1=0, s2=0)
        key_b = ChannelCache.key_for(net, both, "alice")
        warm = index.lookup(key_b, net)
        assert warm is not None
        fresh = dijkstra(net, "alice", residual=both)
        assert warm == fresh  # byte-identical dictionaries
        assert index.hits == 1
        assert index.settled_reused == len(dist)

    def test_unblocking_near_a_settled_relay_is_a_miss(self):
        net = chain_with_spur()
        index = WarmStartIndex()
        blocked_s1 = residual(net, s1=0)
        key_a = ChannelCache.key_for(net, blocked_s1, "alice")
        index.record(key_a, dijkstra(net, "alice", residual=blocked_s1))
        # Unblocking s1 lets settled relay s0 expand into it: miss.
        key_b = ChannelCache.key_for(net, residual(net), "alice")
        assert index.lookup(key_b, net) is None

    def test_unblocking_behind_a_still_blocked_wall_is_a_hit(self):
        net = chain_with_spur()
        index = WarmStartIndex()
        wall = residual(net, s1=0, s2=0)
        key_a = ChannelCache.key_for(net, wall, "alice")
        index.record(key_a, dijkstra(net, "alice", residual=wall))
        # s2 comes back, but its only neighbor s1 stays blocked.
        key_b = ChannelCache.key_for(net, residual(net, s1=0), "alice")
        warm = index.lookup(key_b, net)
        assert warm is not None
        assert warm == dijkstra(net, "alice", residual=residual(net, s1=0))

    def test_unknown_family_is_a_miss(self):
        net = chain_with_spur()
        index = WarmStartIndex()
        key = ChannelCache.key_for(net, residual(net), "alice")
        assert index.lookup(key, net) is None


class TestIndexMechanics:
    def test_lru_bound_evicts_oldest_family(self):
        net = chain_with_spur()
        index = WarmStartIndex(max_families=1)
        key_a = ChannelCache.key_for(net, residual(net), "alice")
        key_b = ChannelCache.key_for(net, residual(net), "bob")
        index.record(key_a, ({}, {}))
        index.record(key_b, ({}, {}))
        assert len(index) == 1
        assert index.lookup(key_a, net) is None  # evicted

    def test_max_families_validated(self):
        with pytest.raises(ValueError, match="max_families"):
            WarmStartIndex(max_families=0)

    def test_lookup_returns_read_only_views(self):
        net = chain_with_spur()
        index = WarmStartIndex()
        key = ChannelCache.key_for(net, residual(net, s1=0), "alice")
        dist, prev = dijkstra(net, "alice", residual=residual(net, s1=0))
        expected = (dict(dist), dict(prev))
        index.record(key, (dist, prev))
        warm = index.lookup(key, net)
        assert warm == expected
        with pytest.raises(TypeError):
            warm[0]["poisoned"] = -1.0
        assert index.lookup(key, net) == expected

    def test_stats_shape(self):
        index = WarmStartIndex()
        stats = index.stats()
        assert stats["hits"] == 0
        assert stats["reuse_ratio"] == 0.0


class TestCacheIntegration:
    def test_dijkstra_consults_warmstart_after_exact_miss(self):
        net = chain_with_spur()
        cache = ChannelCache()
        cache.warmstart = WarmStartIndex()
        with exec_cache.caching(cache):
            first = dijkstra(net, "alice", residual=residual(net, s1=0))
            warmed = dijkstra(
                net, "alice", residual=residual(net, s1=0, s2=0)
            )
        assert cache.warmstart.hits == 1
        # The warm result matches an uncached fresh computation.
        fresh = dijkstra(net, "alice", residual=residual(net, s1=0, s2=0))
        assert warmed == fresh
        assert first != warmed or "s2" not in first[0]

    def test_warm_hit_is_restored_under_exact_key(self):
        net = chain_with_spur()
        cache = ChannelCache()
        cache.warmstart = WarmStartIndex()
        with exec_cache.caching(cache):
            dijkstra(net, "alice", residual=residual(net, s1=0))
            dijkstra(net, "alice", residual=residual(net, s1=0, s2=0))
            before = cache.stats().hits
            dijkstra(net, "alice", residual=residual(net, s1=0, s2=0))
            assert cache.stats().hits == before + 1
        assert cache.warmstart.hits == 1  # second repeat hit exactly
