"""Reference equivalence for the Algorithm-1 channel search.

Equal-weight channels are resolved by the search's tie order: which
neighbor is relaxed first and which heap entry pops first.  Every
solver, cache entry and determinism digest downstream inherits that
order, so the production :func:`repro.core.channel.dijkstra` must not
merely find *a* best channel — it must reproduce, byte for byte, the
``(dist, prev)`` maps of the plain dict / :class:`IndexedMinHeap`
search frozen below, including their insertion order and the
``core.dijkstra.*`` counters it publishes.  The same holds for the LP
pricing search, which runs the same kernel with per-switch penalties.
A search that stops at its caller's last target must return, for each
target, the path the full reference traces, and never do more work.

Networks use small *integer* fiber lengths (and ``α`` / ``q`` values
that keep weight sums exact) so that ties are common rather than rare:
the ``heapq`` search hands those to the pinned sift kernel.  Networks
with seeded *continuous* lengths never tie, so the ``heapq`` search
answers them itself, and ``core.dijkstra.exact_reruns`` stays 0.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, Optional, Set, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
from repro.bounds import lp
from repro.core import channel as channel_module
from repro.core.channel import (
    best_channels_from,
    dijkstra,
    find_best_channel,
    trace_path,
)
from repro.core.ledger import CapacityLedger
from repro.core.rates import swap_log_rate
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.topology import TopologyConfig, generate, grid_network
from repro.utils.heap import IndexedMinHeap

COUNTERS = (
    "core.dijkstra.calls",
    "core.dijkstra.heap_pops",
    "core.dijkstra.edges_scanned",
    "core.dijkstra.relaxations",
    "core.dijkstra.nodes_settled",
)

RERUNS = "core.dijkstra.exact_reruns"


def _require(condition, message):
    """Fail with *message* unless *condition* (kept under ``python -O``)."""
    if not condition:
        raise AssertionError(message)


def _reference_dijkstra(
    network: QuantumNetwork,
    source: Hashable,
    qubits: Dict[Hashable, int],
    forbidden_fibers: Optional[Set[Tuple[Hashable, Hashable]]],
):
    """The dict / IndexedMinHeap channel search, frozen as the reference."""
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)

    dist: Dict[Hashable, float] = {source: 0.0}
    prev: Dict[Hashable, Hashable] = {}
    visited: Set[Hashable] = set()
    heap = IndexedMinHeap()
    heap.push(source, 0.0)
    heap_pops = 0
    edges_scanned = 0
    relaxations = 0

    while len(heap):
        node, node_dist = heap.pop_min()
        heap_pops += 1
        if node in visited:
            continue
        visited.add(node)
        if node != source:
            if not network.is_switch(node):
                continue
            if qubits.get(node, 0) < 2:
                continue
        swap_cost = 0.0 if node == source else minus_ln_q
        if math.isinf(swap_cost):
            continue
        for fiber in network.incident_fibers(node):
            edges_scanned += 1
            neighbor = fiber.other_end(node)
            if neighbor in visited:
                continue
            if forbidden_fibers and fiber.key in forbidden_fibers:
                continue
            if network.is_switch(neighbor) and qubits.get(neighbor, 0) < 2:
                continue
            candidate = node_dist + swap_cost + alpha * fiber.length
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heap.push(neighbor, candidate)
                relaxations += 1
    counters = {
        "core.dijkstra.calls": 1,
        "core.dijkstra.heap_pops": heap_pops,
        "core.dijkstra.edges_scanned": edges_scanned,
        "core.dijkstra.relaxations": relaxations,
        "core.dijkstra.nodes_settled": len(visited),
    }
    return dist, prev, counters


def _reference_pricing(
    network: QuantumNetwork,
    source: Hashable,
    penalties: Dict[Hashable, float],
    budgets: Optional[Dict[Hashable, int]],
):
    """The LP pricing search as it stood beside the channel search."""
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)

    dist: Dict[Hashable, float] = {source: 0.0}
    prev: Dict[Hashable, Hashable] = {}
    visited: set = set()
    heap = IndexedMinHeap()
    heap.push(source, 0.0)
    while len(heap):
        node, node_dist = heap.pop_min()
        if node in visited:
            continue
        visited.add(node)
        if node != source:
            if not network.is_switch(node):
                continue
            if budgets is not None and budgets.get(node, 0) < 2:
                continue
        transit_cost = (
            0.0
            if node == source
            else minus_ln_q + penalties.get(node, 0.0)
        )
        if math.isinf(transit_cost):
            continue
        for fiber in network.incident_fibers(node):
            neighbor = fiber.other_end(node)
            if neighbor in visited:
                continue
            if (
                network.is_switch(neighbor)
                and budgets is not None
                and budgets.get(neighbor, 0) < 2
            ):
                continue
            candidate = node_dist + transit_cost + alpha * fiber.length
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heap.push(neighbor, candidate)
    return dist, prev


@st.composite
def tied_networks(draw, dense=False, continuous=False):
    """A random network with integer fiber lengths, in a random build order.

    ``dense`` draws each node pair's fiber with even odds, so that most
    networks have multi-hop channels whose targets are relaxed more than
    once before they settle.  ``continuous`` draws each length uniformly
    from ``[0.5, 3)`` with a seeded generator instead, so no two path
    weights are equal.
    """
    n_users = draw(st.integers(1, 5))
    n_switches = draw(st.integers(0, 10))
    names = [f"u{i}" for i in range(n_users)] + [
        f"s{i}" for i in range(n_switches)
    ]
    order = draw(st.permutations(names))
    params = NetworkParams(
        alpha=draw(st.sampled_from([1.0, 0.5, 0.1, 0.3, 1e-4])),
        swap_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    network = QuantumNetwork(params)
    for name in order:
        if name.startswith("u"):
            network.add_user(name)
        else:
            network.add_switch(name, qubits=draw(st.integers(0, 4)))
    pairs = [
        (a, b) for i, a in enumerate(order) for b in order[i + 1 :]
    ]
    if dense:
        chosen = [pair for pair in pairs if draw(st.booleans())]
    else:
        chosen = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
            if pairs
            else st.just([])
        )
    if continuous:
        lengths = random.Random(draw(st.integers(0, 2**32 - 1)))
    for u, v in chosen:
        if continuous:
            length = lengths.uniform(0.5, 3.0)
        else:
            length = float(draw(st.integers(1, 3)))
        network.add_fiber(u, v, length=length)
    return network


@st.composite
def search_cases(draw, dense=False):
    """A search input: integer lengths (ties) or continuous ones (none).

    The last field says which; continuous cases must never reach the
    pinned kernel.
    """
    continuous = draw(st.booleans())
    network = draw(tied_networks(dense, continuous))
    switches = network.switch_ids
    if draw(st.booleans()):
        residual = None
        qubits = network.residual_qubits()
    else:
        qubits = {
            s: draw(st.integers(0, 4))
            for s in switches
            if draw(st.booleans())
        }
        residual = CapacityLedger(qubits)
    fiber_keys = [f.key for f in network.fibers]
    forbidden = None
    if fiber_keys and draw(st.booleans()):
        forbidden = set(
            draw(st.lists(st.sampled_from(fiber_keys), unique=True))
        )
    allow_switch_source = bool(switches) and draw(st.booleans())
    candidates = network.node_ids if allow_switch_source else network.user_ids
    source = draw(st.sampled_from(candidates))
    return (
        network,
        source,
        residual,
        qubits,
        forbidden,
        allow_switch_source,
        continuous,
    )


def _ordered(mapping):
    return list(mapping.items())


def _pinned_search(network, source, residual, forbidden, targets=None):
    """The pinned kernel run directly, as :func:`dijkstra` would call it."""
    graph = network.routing_snapshot()
    if residual is None:
        residual = CapacityLedger.from_network(network)
    minus_ln_q = -swap_log_rate(network.params.swap_prob)
    return channel_module._exact_search(
        graph,
        graph.index[source],
        network.params.alpha,
        [minus_ln_q] * len(graph.ids),
        residual.blocked(graph),
        forbidden or None,
        None if targets is None else {graph.index[t] for t in targets},
    )


def _assert_matches_reference(
    network,
    source,
    residual,
    qubits,
    forbidden,
    allow_switch_source,
    continuous=False,
):
    """One full search, and the pinned kernel run on its own, match the
    reference, tie flag included; returns the search's reruns."""
    expected_dist, expected_prev, expected_counters = _reference_dijkstra(
        network, source, qubits, forbidden
    )
    dist, pinned_prev, heap_pops, edges_scanned, relaxations = (
        _pinned_search(network, source, residual, forbidden)
    )
    _require(
        _ordered(dist) == _ordered(expected_dist)
        and _ordered(pinned_prev) == _ordered(expected_prev)
        and [heap_pops, edges_scanned, relaxations]
        == [
            expected_counters["core.dijkstra.heap_pops"],
            expected_counters["core.dijkstra.edges_scanned"],
            expected_counters["core.dijkstra.relaxations"],
        ],
        "the pinned kernel left the reference",
    )
    with obs_metrics.collecting() as registry:
        dist, prev = dijkstra(
            network,
            source,
            residual,
            forbidden_fibers=forbidden,
            allow_switch_source=allow_switch_source,
        )
    assert _ordered(dist) == _ordered(expected_dist)
    assert _ordered(prev) == _ordered(expected_prev)
    counters = registry.counters()
    assert {name: counters.get(name, 0) for name in COUNTERS} == (
        expected_counters
    )
    _require(
        prev.tied == pinned_prev.tied,
        f"tie flag {prev.tied}, the pinned kernel's {pinned_prev.tied}",
    )
    reruns = counters.get(RERUNS, 0)
    _require(
        not continuous or reruns == 0,
        f"continuous lengths tied: {reruns} rerun(s)",
    )
    return reruns


@settings(max_examples=300, deadline=None)
@given(case=search_cases())
def test_dijkstra_matches_frozen_reference(case):
    _assert_matches_reference(*case)


def test_equal_keys_pop_in_reference_order():
    """A fan of equal-weight relays: only the heap's tie rules order them.

    Every switch reaches ``t`` at the same weight, so the first switch
    popped wins ``t``, and each switch's private user ``p*`` enters
    ``dist`` when that switch pops.  A sift that moves an entry on an
    equal key pops the switches in a different order.
    """
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
    network.add_user("u")
    network.add_user("t")
    for i in range(7):
        network.add_switch(f"s{i}", qubits=2)
        network.add_user(f"p{i}")
        network.add_fiber("u", f"s{i}", length=1.0)
        network.add_fiber(f"s{i}", f"p{i}", length=1.0)
    for i in range(7):
        network.add_fiber(f"s{i}", "t", length=1.0)
    qubits = network.residual_qubits()
    _assert_matches_reference(network, "u", None, qubits, None, False)


def test_stop_at_an_equal_weight_defers_to_the_pinned_kernel():
    """Two users at one weight, the target built first and scanned last.

    A ``(weight, node)`` heap pops the target first and could stop
    there; the reference pops ``b`` first, then the target.  The queued
    equal weight at the stop sends the search to the pinned kernel.
    """
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
    for name in ("u", "t", "b"):
        network.add_user(name)
    network.add_fiber("u", "b", length=1.0)
    network.add_fiber("u", "t", length=1.0)
    (dist, prev), counters = _searched(
        lambda: dijkstra(network, "u", targets=["t"])
    )
    _require(
        list(dist) == ["u", "b", "t"]
        and counters["core.dijkstra.heap_pops"] == 3
        and counters[RERUNS] == 1
        and prev.tied,
        f"stopped at {counters}",
    )


@settings(max_examples=200, deadline=None)
@given(case=search_cases(), data=st.data())
def test_pricing_matches_frozen_reference(case, data):
    network, source, residual, qubits, _forbidden, _allow, continuous = case
    if not network.is_user(source):
        return
    penalties = {
        s: float(data.draw(st.integers(0, 3)))
        for s in network.switch_ids
        if data.draw(st.booleans())
    }
    budgets = data.draw(st.sampled_from([None, qubits]))
    expected_dist, expected_prev = _reference_pricing(
        network, source, penalties, budgets
    )
    graph = network.routing_snapshot()
    if budgets is None:
        blocked = bytearray(len(graph.ids))
    else:
        blocked = CapacityLedger(budgets).blocked(graph)
    with mock.patch.object(
        channel_module, "_exact_search", wraps=channel_module._exact_search
    ) as exact:
        dist, prev = lp._pricing_search(network, source, penalties, blocked)
    assert _ordered(dist) == _ordered(expected_dist)
    assert _ordered(prev) == _ordered(expected_prev)
    _require(
        not continuous or not exact.called,
        "continuous lengths reached the pinned kernel",
    )


@st.composite
def target_cases(draw):
    """A search case from a user, with a target list and residual form.

    Targets are any users, so the list mixes reachable and unreachable
    ones, may name the source and may repeat.  The residual is passed
    as drawn (``None`` or a ledger) or replaced by a fresh
    ``CapacityLedger`` over the same free qubits.
    """
    network, source, residual, qubits, forbidden, _, continuous = draw(
        search_cases(dense=True)
    )
    users = network.user_ids
    if not network.is_user(source):
        source = draw(st.sampled_from(users))
    targets = draw(st.lists(st.sampled_from(users), max_size=6))
    if draw(st.booleans()):
        residual = CapacityLedger(qubits)
    return network, source, residual, qubits, forbidden, targets, continuous


def _searched(call):
    """Run *call* under a fresh registry; returns (value, counters)."""
    with obs_metrics.collecting() as registry:
        value = call()
    counters = registry.counters()
    names = COUNTERS + (RERUNS,)
    return value, {name: counters.get(name, 0) for name in names}


def _within_reference(counters, reference, continuous):
    assert counters["core.dijkstra.calls"] == 1
    for name in COUNTERS[1:]:
        assert counters[name] <= reference[name], name
    _require(
        not continuous or counters[RERUNS] == 0,
        "continuous lengths reached the pinned kernel",
    )


@settings(max_examples=300, deadline=None)
@given(case=target_cases())
def test_target_searches_match_full_reference(case):
    """A search that stops at its last target keeps every target's path.

    The channels that ``best_channels_from`` and ``find_best_channel``
    return trace the frozen full search's ``prev`` exactly, tie for
    tie, and the stopped search never does more work than the full one.
    A stopped :func:`dijkstra` returns the pinned kernel's stopped
    search: the same views, tie flag and counters.
    """
    network, source, residual, qubits, forbidden, targets, continuous = case
    ref_dist, ref_prev, ref_counters = _reference_dijkstra(
        network, source, qubits, forbidden
    )
    wanted = [t for t in dict.fromkeys(targets) if t != source]
    expected = {
        t: trace_path(ref_prev, source, t) for t in wanted if t in ref_dist
    }
    if forbidden is None:
        channels, counters = _searched(
            lambda: best_channels_from(network, source, targets, residual)
        )
        assert [(t, c.path) for t, c in channels.items()] == list(
            expected.items()
        )
        _within_reference(counters, ref_counters, continuous)
    if wanted:
        (dist, prev), counters = _searched(
            lambda: dijkstra(
                network, source, residual, forbidden, targets=wanted
            )
        )
        pinned_dist, pinned_prev, *pinned_counters = _pinned_search(
            network, source, residual, forbidden, wanted
        )
        _require(
            _ordered(dist) == _ordered(pinned_dist)
            and _ordered(prev) == _ordered(pinned_prev)
            and prev.tied == pinned_prev.tied
            and [counters[name] for name in COUNTERS[1:4]] == pinned_counters,
            "a stopped search left the pinned kernel's stopped search",
        )
    for target in wanted:
        channel, counters = _searched(
            lambda: find_best_channel(
                network, source, target, residual, forbidden
            )
        )
        assert (channel and channel.path) == expected.get(target)
        _within_reference(counters, ref_counters, continuous)


@pytest.mark.parametrize(
    "kind, seed",
    [
        ("waxman", 1),
        ("waxman", 2),
        ("watts_strogatz", 1),
        ("watts_strogatz", 2),
        ("grid", None),
    ],
)
def test_exact_reruns_follow_ties(kind, seed):
    """Default-config networks never reach the pinned kernel; a lattice
    of equal fibers reaches it on every search.

    Each network runs every search form: full searches with forbidden
    fibers, target searches that stop early, a blocked switch source
    (the k-best spur searches) and LP pricing under transit penalties.
    All of them match the frozen reference either way.
    """
    if kind == "grid":
        network = grid_network(8, 8)
    else:
        network = generate(kind, TopologyConfig(), rng=seed)
    tied = kind == "grid"
    users = network.user_ids
    switches = network.switch_ids
    qubits = network.residual_qubits()
    blocked_source = switches[len(switches) // 2]
    qubits[blocked_source] = 1
    ledger = CapacityLedger(qubits)
    relays = [
        fiber.key
        for fiber in network.fibers
        if network.is_switch(fiber.u) and network.is_switch(fiber.v)
    ]
    forbidden = set(relays[:3])

    searches = reruns = 0
    for source in users:
        reruns += _assert_matches_reference(
            network, source, ledger, qubits, forbidden, False
        )
        _, ref_prev, _ = _reference_dijkstra(network, source, qubits, None)
        others = [user for user in users if user != source]
        channels, counters = _searched(
            lambda: best_channels_from(network, source, others, ledger)
        )
        _require(
            [(t, c.path) for t, c in channels.items()]
            == [
                (t, trace_path(ref_prev, source, t))
                for t in others
                if t in ref_prev
            ],
            f"target search from {source!r} left the reference's paths",
        )
        reruns += counters[RERUNS]
        searches += 2
    reruns += _assert_matches_reference(
        network, blocked_source, ledger, qubits, None, True
    )
    searches += 1
    _require(
        reruns == (searches if tied else 0),
        f"{reruns} rerun(s) in {searches} searches on {kind}",
    )

    penalties = {s: 0.25 * (i % 3) for i, s in enumerate(switches)}
    blocked = ledger.blocked(network.routing_snapshot())
    with mock.patch.object(
        channel_module, "_exact_search", wraps=channel_module._exact_search
    ) as exact:
        for source in users:
            expected_dist, expected_prev = _reference_pricing(
                network, source, penalties, qubits
            )
            dist, prev = lp._pricing_search(
                network, source, penalties, blocked
            )
            _require(
                _ordered(dist) == _ordered(expected_dist)
                and _ordered(prev) == _ordered(expected_prev),
                f"pricing search from {source!r} left the reference",
            )
    _require(
        exact.call_count == (len(users) if tied else 0),
        f"{exact.call_count} pricing rerun(s) on {kind}",
    )
