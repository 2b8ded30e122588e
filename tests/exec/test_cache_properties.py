"""Property tests: caching is invisible to every observable result.

The load-bearing claim of the channel cache is *exactness*: with any
sequence of topology choices, capacity reservations and releases, a
cached search must return bit-equal results to an uncached one — same
rate, same path, same qubit usage.  Hypothesis drives random topologies
and random reserve/release sequences through paired cached/uncached
searches to hunt for any divergence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import best_channels_from, dijkstra, find_best_channel
from repro.core.ledger import QUBITS_PER_CHANNEL, CapacityLedger
from repro.core.registry import solve
from repro.exec import cache as exec_cache
from repro.exec.cache import ChannelCache
from repro.topology import TopologyConfig, waxman_network
from repro.utils.rng import ensure_rng

SMALL = TopologyConfig(
    n_switches=10, n_users=4, avg_degree=4.0, qubits_per_switch=4
)


def _channel_facts(channel):
    """The observables the paper cares about: rate, path, qubit usage."""
    if channel is None:
        return None
    # Each transit switch consumes 2 qubits (Def. 3), so the switch
    # tuple determines the channel's qubit usage.
    return (channel.rate, channel.path, channel.switches)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 50_000),
    pair=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_cached_search_equals_uncached_fresh_network(seed, pair):
    net = waxman_network(SMALL, rng=seed)
    users = net.user_ids
    source, target = users[pair[0]], users[(pair[1] + 1) % len(users)]
    if source == target:
        target = users[(pair[1] + 2) % len(users)]
    plain = find_best_channel(net, source, target)
    with exec_cache.caching():
        cold = find_best_channel(net, source, target)  # populates
        warm = find_best_channel(net, source, target)  # hits
    assert _channel_facts(plain) == _channel_facts(cold)
    assert _channel_facts(plain) == _channel_facts(warm)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 50_000),
    ops=st.lists(
        st.tuples(
            st.integers(0, 9),  # switch index
            st.sampled_from(["reserve", "release"]),
        ),
        min_size=0,
        max_size=12,
    ),
)
def test_cached_search_tracks_reserve_release_sequences(seed, ops):
    """Interleave capacity churn with paired cached/uncached searches.

    The ledger's threshold-crossing hooks invalidate as switches flip
    in and out of relay capability; after *every* mutation the cached
    search must still agree with a from-scratch computation.
    """
    net = waxman_network(SMALL, rng=seed)
    users = net.user_ids
    switches = net.switch_ids
    with exec_cache.caching() as outer:
        ledger = CapacityLedger.from_network(net)
        for switch_index, op in ops:
            switch = switches[switch_index % len(switches)]
            usage = {switch: QUBITS_PER_CHANNEL}
            if op == "reserve":
                if ledger.available(switch) >= QUBITS_PER_CHANNEL:
                    ledger.reserve(usage)
            else:
                if ledger.used(switch) >= QUBITS_PER_CHANNEL:
                    ledger.release(usage)
            residual = CapacityLedger(ledger.as_dict())
            for source in (users[0], users[1]):
                cached_dist, cached_prev = dijkstra(net, source, residual)
                with exec_cache.caching(ChannelCache()):
                    # A throwaway empty cache == an uncached recompute,
                    # while keeping the code path identical.
                    fresh_dist, fresh_prev = dijkstra(net, source, residual)
                assert cached_dist == fresh_dist
                assert cached_prev == fresh_prev
            cached_all = best_channels_from(
                net, users[2], users[:2], residual
            )
            exec_cache.disable()
            try:
                plain_all = best_channels_from(
                    net, users[2], users[:2], residual
                )
            finally:
                exec_cache.enable(outer)
            assert {
                t: _channel_facts(c) for t, c in cached_all.items()
            } == {t: _channel_facts(c) for t, c in plain_all.items()}


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 50_000),
    method=st.sampled_from(["prim", "conflict_free", "nfusion", "eqcast"]),
)
def test_full_solves_identical_under_cache(seed, method):
    """End-to-end: whole solver runs are unchanged by an active cache."""
    net = waxman_network(SMALL, rng=seed)
    plain = solve(method, net, rng=ensure_rng(seed))
    with exec_cache.caching():
        cached = solve(method, net, rng=ensure_rng(seed))
        cached_again = solve(method, net, rng=ensure_rng(seed))
    assert plain.rate == cached.rate == cached_again.rate
    assert [c.path for c in plain.channels] == [
        c.path for c in cached.channels
    ]
    assert plain.switch_usage() == cached.switch_usage()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50_000))
def test_topology_mutation_invalidates_stale_entries(seed):
    """Removing a fiber mid-scope must never serve pre-mutation routes."""
    net = waxman_network(SMALL, rng=seed)
    users = net.user_ids
    with exec_cache.caching():
        find_best_channel(net, users[0], users[1])  # warm the cache
        fiber = net.fibers[0]
        net.remove_fiber(fiber.u, fiber.v)
        cached = find_best_channel(net, users[0], users[1])
    plain = find_best_channel(net, users[0], users[1])
    assert _channel_facts(cached) == _channel_facts(plain)
