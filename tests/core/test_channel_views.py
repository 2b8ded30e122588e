"""The ``dist`` / ``prev`` maps the channel search returns.

:func:`repro.core.channel.dijkstra` returns read-only mappings over the
search kernel's index arrays instead of building two dicts per search.
They must read exactly as the dicts did — same items in the same
order, same ``in`` / ``len`` / ``get`` answers, equal to a dict — also
for a search that stopped at its last target, whose unsettled nodes
hold partial weights.  Nobody may write to them.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Set

import pytest
from hypothesis import given, settings

from repro.core.channel import dijkstra
from repro.core.ledger import CapacityLedger
from repro.core.rates import swap_log_rate
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.utils.heap import IndexedMinHeap
from tests.core.test_channel_reference import target_cases


def _stopped_reference(network, source, qubits, forbidden, targets):
    """The dict / IndexedMinHeap search, stopped once every target of
    *targets* has popped: the dicts an early-stopped search returned."""
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)
    dist: Dict[Hashable, float] = {source: 0.0}
    prev: Dict[Hashable, Hashable] = {}
    visited: Set[Hashable] = set()
    pending = set(targets)
    heap = IndexedMinHeap()
    heap.push(source, 0.0)
    while len(heap):
        node, node_dist = heap.pop_min()
        visited.add(node)
        pending.discard(node)
        if not pending:
            break
        if node != source:
            if not network.is_switch(node) or qubits.get(node, 0) < 2:
                continue
        swap_cost = 0.0 if node == source else minus_ln_q
        if math.isinf(swap_cost):
            continue
        for fiber in network.incident_fibers(node):
            neighbor = fiber.other_end(node)
            if neighbor in visited:
                continue
            if forbidden and fiber.key in forbidden:
                continue
            if network.is_switch(neighbor) and qubits.get(neighbor, 0) < 2:
                continue
            candidate = node_dist + swap_cost + alpha * fiber.length
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heap.push(neighbor, candidate)
    return dist, prev


def _assert_reads_as(view, expected):
    assert list(view.items()) == list(expected.items())
    assert list(dict(view).items()) == list(expected.items())
    assert list(view) == list(expected)
    assert len(view) == len(expected)
    assert view == expected and expected == view
    for key, value in expected.items():
        assert key in view
        assert view[key] == value
        assert view.get(key) == value


@settings(max_examples=300, deadline=None)
@given(case=target_cases())
def test_stopped_search_reads_as_the_dicts_did(case):
    """Every relaxed node reads its weight at the stop, settled or not,
    and nodes the search never relaxed are absent."""
    network, source, residual, qubits, forbidden, targets, _ = case
    if not targets:
        return
    dist, prev = dijkstra(
        network, source, residual, forbidden, targets=targets
    )
    expected_dist, expected_prev = _stopped_reference(
        network, source, qubits, forbidden, targets
    )
    _assert_reads_as(dist, expected_dist)
    _assert_reads_as(prev, expected_prev)
    for node in network.node_ids + ["not-a-node"]:
        if node not in expected_dist:
            assert node not in dist
            assert dist.get(node, "absent") == "absent"
            with pytest.raises(KeyError):
                dist[node]
        if node not in expected_prev:
            assert node not in prev
            with pytest.raises(KeyError):
                prev[node]


def _line() -> QuantumNetwork:
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
    network.add_user("a")
    network.add_switch("s", qubits=2)
    network.add_user("b")
    network.add_user("c")
    network.add_fiber("a", "s", length=1.0)
    network.add_fiber("s", "b", length=1.0)
    return network


def test_views_reject_writes():
    network = _line()
    dist, prev = dijkstra(network, "a")
    for view in (dist, prev):
        with pytest.raises(TypeError):
            view["b"] = 0.0
        with pytest.raises(TypeError):
            del view["b"]
    assert dict(dist) == {"a": 0.0, "s": 1.0, "b": 2.0}
    assert dict(prev) == {"s": "a", "b": "s"}


def test_source_has_a_weight_but_no_predecessor():
    dist, prev = dijkstra(_line(), "a")
    assert "a" in dist and "a" not in prev
    assert "c" not in dist and "c" not in prev  # unreachable user


def test_ledger_mask_and_dict_residual_search_alike():
    """A search on a ledger reads the mask the ledger kept through its
    reservations; a fresh ledger over the ledger's dict builds one.
    Same result."""
    network = _line()
    ledger = CapacityLedger.from_network(network)
    assert "b" in dijkstra(network, "a", ledger)[0]
    ledger.reserve({"s": 2})
    for residual in (ledger, CapacityLedger(ledger.as_dict())):
        dist, prev = dijkstra(network, "a", residual)
        assert dict(dist) == {"a": 0.0} and dict(prev) == {}
    ledger.release({"s": 2})
    assert dijkstra(network, "a", ledger) == dijkstra(network, "a")
