"""Property suite: incremental == from-scratch, byte for byte.

The incremental router's entire value proposition rests on one
contract: for any valid delta stream, the incrementally maintained
trees and aggregates are **byte-identical** to the from-scratch
reference — with or without the exact cache, the warm-start index, and
the delta bus.  Hypothesis drives seeded topologies and churn streams
through every configuration and compares sha256 digests of the
canonical aggregates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import dijkstra
from repro.core.ledger import CapacityLedger
from repro.exec import cache as exec_cache
from repro.exec.cache import ChannelCache
from repro.incremental import IncrementalRouter
from repro.incremental import delta as incremental_delta
from repro.incremental.warmstart import WarmStartIndex
from repro.sim.workload import ChurnSpec, generate_churn
from repro.topology import TopologyConfig, waxman_network
from repro.topology.extras import grid_network


@pytest.fixture(autouse=True)
def _clean_globals():
    exec_cache.disable()
    incremental_delta.disable()
    yield
    exec_cache.disable()
    incremental_delta.disable()


def _network(kind: str, seed: int):
    if kind == "grid":
        return grid_network(4, 4)
    config = TopologyConfig(n_switches=16, n_users=5, qubits_per_switch=4)
    return waxman_network(config, rng=seed)


def _events(network, seed: int, n_events: int, mix):
    return generate_churn(
        network,
        ChurnSpec(n_faults=n_events, fault_mix=mix),
        rng=seed + 1,
    )


def _run(
    kind: str,
    seed: int,
    n_events: int,
    mix,
    method: str,
    mode: str,
    caching: bool = False,
    warmstart: bool = False,
    bus_scope: str = "",
    cache=None,
):
    network = _network(kind, seed)
    users = tuple(sorted(network.user_ids, key=repr))
    events = _events(network, seed, n_events, mix)
    router_args = dict(
        users=users, method=method, seed=seed, mode=mode, radius=2
    )
    if not caching and not bus_scope:
        router = IncrementalRouter(network, **router_args)
        router.run(events)
        return router
    if cache is None:
        cache = ChannelCache()
    if warmstart:
        cache.warmstart = WarmStartIndex()
    cache_ctx = (
        exec_cache.caching(cache) if caching else _null()
    )
    bus_ctx = (
        incremental_delta.tracking(scope=bus_scope)
        if bus_scope
        else _null()
    )
    with cache_ctx, bus_ctx:
        router = IncrementalRouter(network, **router_args)
        router.run(events)
    return router


class _null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


MIXES = st.sampled_from(
    [
        (0.6, 0.2, 0.2),
        (0.3, 0.3, 0.4),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=30),
    mix=MIXES,
    kind=st.sampled_from(["grid", "waxman"]),
)
def test_incremental_equals_from_scratch(seed, n_events, mix, kind):
    inc = _run(kind, seed, n_events, mix, "prim", "incremental")
    ref = _run(kind, seed, n_events, mix, "prim", "from_scratch")
    assert inc.aggregate() == ref.aggregate()
    assert inc.digest() == ref.digest()


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=25),
    mix=MIXES,
)
def test_cache_and_warmstart_never_change_results(seed, n_events, mix):
    """The router bypasses an ambient cache: it is never consulted."""
    plain = _run("grid", seed, n_events, mix, "prim", "incremental")
    cache = ChannelCache()
    cached = _run(
        "grid",
        seed,
        n_events,
        mix,
        "prim",
        "incremental",
        caching=True,
        cache=cache,
    )
    warm_cache = ChannelCache()
    warmed = _run(
        "grid",
        seed,
        n_events,
        mix,
        "prim",
        "incremental",
        caching=True,
        warmstart=True,
        bus_scope="region",
        cache=warm_cache,
    )
    assert plain.digest() == cached.digest()
    assert plain.digest() == warmed.digest()
    assert cache.stats().lookups == 0
    assert warm_cache.stats().lookups == 0
    assert warm_cache.warmstart.lookups == 0


def _scoped_searches(seed, steps, scope):
    """Channel searches across live fiber cuts and restores.

    Each step searches from every user, cuts one fiber, searches,
    restores and realigns the fiber and searches again, with the step's
    switch held below the relay threshold.  The realignment matters:
    cache keys ignore adjacency order, so without it a restored fiber
    could be served a tie resolved under the old order.  Under *scope*
    the searches run with an active cache and bus (the path the router
    bypasses); without it, with neither.  Returns the searches in call
    order and the cache stats.
    """
    network = _network("waxman", seed)
    reference = network.copy()
    fibers = sorted(network.fibers, key=lambda f: repr(f.key))
    switches = sorted(network.switch_ids, key=repr)
    users = sorted(network.user_ids, key=repr)
    cache = ChannelCache()
    cache_ctx = exec_cache.caching(cache) if scope else _null()
    bus_ctx = (
        incremental_delta.tracking(scope=scope, radius=1)
        if scope
        else _null()
    )
    results = []
    with cache_ctx, bus_ctx:
        for step in steps:
            fiber = fibers[step % len(fibers)]
            qubits = network.residual_qubits()
            qubits[switches[step % len(switches)]] = 0
            residual = CapacityLedger(qubits)
            for phase in ("before", "cut", "restored"):
                if phase == "cut":
                    network.remove_fiber(fiber.u, fiber.v)
                elif phase == "restored":
                    network.add_fiber(fiber.u, fiber.v, fiber.length)
                    network.align_fiber_order(
                        reference, nodes=(fiber.u, fiber.v)
                    )
                for user in users:
                    dist, prev = dijkstra(network, user, residual)
                    results.append((list(dist.items()), list(prev.items())))
    return results, cache.stats()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8
    ),
)
def test_region_and_fingerprint_scopes_agree(seed, steps):
    """Bus scoping is cache hygiene only: it never changes a result.

    The router runs with no cache, so this drives live mutations and
    searches directly, the path sweeps and other callers still cache.
    """
    plain, _ = _scoped_searches(seed, steps, "")
    region, region_stats = _scoped_searches(seed, steps, "region")
    fingerprint, fingerprint_stats = _scoped_searches(
        seed, steps, "fingerprint"
    )
    assert region == plain
    assert fingerprint == plain
    # Every search went through the cache.  Region hygiene drops a
    # subset of what fingerprint hygiene drops, so it never hits less.
    assert region_stats.lookups == fingerprint_stats.lookups == len(plain)
    assert region_stats.hits >= fingerprint_stats.hits


def test_region_scope_serves_entries_the_fingerprint_scope_drops():
    plain, _ = _scoped_searches(0, [3, 5], "")
    region, region_stats = _scoped_searches(0, [3, 5], "region")
    fingerprint, fingerprint_stats = _scoped_searches(0, [3, 5], "fingerprint")
    assert region == fingerprint == plain
    assert region_stats.hits > 0
    assert fingerprint_stats.hits == 0


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=20),
)
def test_conflict_free_method_equivalence(seed, n_events):
    mix = (0.6, 0.2, 0.2)
    inc = _run("grid", seed, n_events, mix, "conflict_free", "incremental")
    ref = _run("grid", seed, n_events, mix, "conflict_free", "from_scratch")
    assert inc.digest() == ref.digest()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=30),
    mix=MIXES,
    kind=st.sampled_from(["grid", "waxman"]),
)
def test_every_installed_splice_passed_the_verifier(seed, n_events, mix, kind):
    router = _run(kind, seed, n_events, mix, "prim", "incremental")
    splices = sum(
        1 for o in router.outcomes if o.action == "splice"
    )
    # The engine audits every candidate splice; only verified ones are
    # installed, so the verified counter must cover every splice action.
    assert router.counters.get("splice.verified", 0) >= splices


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=25),
    mix=MIXES,
)
def test_replay_is_deterministic(seed, n_events, mix):
    first = _run("grid", seed, n_events, mix, "prim", "incremental")
    second = _run("grid", seed, n_events, mix, "prim", "incremental")
    assert first.digest() == second.digest()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=1, max_value=25),
    mix=MIXES,
)
def test_damaged_view_fiber_order_is_never_read(seed, n_events, mix):
    """Restores realign only the two adjacency rows, never ``_fibers``.

    That is sound only while no consumer of the damaged view reads the
    order of its fiber dict: reversing it after every event must leave
    the digest equal to the from-scratch reference.
    """
    network = _network("waxman", seed)
    users = tuple(sorted(network.user_ids, key=repr))
    events = _events(network, seed, n_events, mix)
    router = IncrementalRouter(
        network, users=users, method="prim", seed=seed, radius=2
    )
    for event in events:
        router.apply(event)
        damaged = router._damaged
        damaged._fibers = dict(reversed(list(damaged._fibers.items())))
    ref = _run("waxman", seed, n_events, mix, "prim", "from_scratch")
    assert router.digest() == ref.digest()
