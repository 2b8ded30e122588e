"""The channel search must never run on a stale routing snapshot.

:meth:`QuantumNetwork.routing_snapshot` is memoized per network, so
every change to what the search reads — nodes, fibers, and the order
fibers are scanned in — must drop it.  The network below has two
equal-weight channels ``a–s1–b`` and ``a–s2–b``; which one wins is
decided purely by the order of ``a``'s adjacency row, so a snapshot
that missed a reordering shows up as the wrong predecessor.
"""

from __future__ import annotations

from repro.core.channel import dijkstra
from repro.network.graph import NetworkParams, QuantumNetwork

PARAMS = NetworkParams(alpha=1.0, swap_prob=1.0)


def _build(params: NetworkParams = PARAMS) -> QuantumNetwork:
    network = QuantumNetwork(params)
    network.add_user("a")
    network.add_user("b")
    network.add_switch("s1", qubits=4)
    network.add_switch("s2", qubits=4)
    network.add_fiber("a", "s1", length=1.0)
    network.add_fiber("a", "s2", length=1.0)
    network.add_fiber("s1", "b", length=1.0)
    network.add_fiber("s2", "b", length=1.0)
    return network


def _search(network):
    dist, prev = dijkstra(network, "a")
    return list(dist.items()), list(prev.items())


def test_fiber_removal_and_readd_rebuild_the_snapshot():
    network = _build()
    assert dict(_search(network)[1])["b"] == "s1"

    network.remove_fiber("a", "s1")
    dist, prev = _search(network)
    assert "s1" not in dict(dist)
    assert dict(prev)["b"] == "s2"

    # Re-adding appends the fiber to both rows, so ``a`` now scans s2
    # first and the tie flips — exactly as in a network built that way.
    network.add_fiber("a", "s1", length=1.0)
    rebuilt = QuantumNetwork(PARAMS)
    for node in ("a", "b"):
        rebuilt.add_user(node)
    for node in ("s1", "s2"):
        rebuilt.add_switch(node, qubits=4)
    rebuilt.add_fiber("a", "s2", length=1.0)
    rebuilt.add_fiber("s1", "b", length=1.0)
    rebuilt.add_fiber("s2", "b", length=1.0)
    rebuilt.add_fiber("a", "s1", length=1.0)
    assert _search(network) == _search(rebuilt)
    assert dict(_search(network)[1])["b"] == "s2"


def test_align_fiber_order_drops_the_snapshot():
    reference = _build()
    network = _build()
    network.remove_fiber("a", "s1")
    network.add_fiber("a", "s1", length=1.0)
    assert dict(_search(network)[1])["b"] == "s2"  # snapshot now built

    network.align_fiber_order(reference)
    assert _search(network) == _search(reference)
    assert dict(_search(network)[1])["b"] == "s1"


def test_copy_shares_until_the_clone_mutates():
    network = _build()
    before = _search(network)
    clone = network.copy()
    assert clone.routing_snapshot() is network.routing_snapshot()

    clone.remove_fiber("a", "s1")
    assert _search(network) == before
    assert "s1" not in dict(_search(clone)[0])


def test_parameter_changes_reach_the_search():
    network = _build()
    _search(network)  # build the snapshot under the old parameters
    changed = NetworkParams(alpha=2.0, swap_prob=0.5)
    expected = _search(_build(changed))

    assert _search(network.with_params(changed)) == expected
    network.params = changed
    assert _search(network) == expected
