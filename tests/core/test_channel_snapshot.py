"""The channel search must never run on a stale routing snapshot.

:meth:`QuantumNetwork.routing_snapshot` is memoized per network, so
every change to what the search reads — nodes, fibers, and the order
fibers are scanned in — must drop it or patch the rows it touched.  The network below has two
equal-weight channels ``a–s1–b`` and ``a–s2–b``; which one wins is
decided purely by the order of ``a``'s adjacency row, so a snapshot
that missed a reordering shows up as the wrong predecessor.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import dijkstra
from repro.network.graph import NetworkParams, QuantumNetwork, RoutingSnapshot
from repro.network.link import fiber_key
from repro.topology import TopologyConfig, waxman_network

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


def test_adding_a_node_drops_the_snapshot():
    network = _build()
    snapshot = network.routing_snapshot()
    network.add_switch("s3", qubits=4)
    rebuilt = network.routing_snapshot()
    assert rebuilt is not snapshot
    assert rebuilt.ids == ["a", "b", "s1", "s2", "s3"]
    assert rebuilt.rows[-1] == []


# ----------------------------------------------------------------------
# Patching: fiber changes and row realignments rebuild only the touched
# rows, lazily, into a new snapshot (clones share the old one).
# ----------------------------------------------------------------------
def _fresh(network):
    """The snapshot of *network*'s adjacency, built from the public API."""
    ids = network.node_ids
    index = {node: i for i, node in enumerate(ids)}
    rows = [
        [
            (
                index[other],
                fiber_key(node, other),
                network.fiber_between(node, other).length,
            )
            for other in network.neighbors(node)
        ]
        for node in ids
    ]
    is_switch = [network.is_switch(node) for node in ids]
    switches = [(i, node) for i, node in enumerate(ids) if is_switch[i]]
    return RoutingSnapshot(ids, index, is_switch, switches, rows)


def _frozen(snapshot):
    return [list(row) for row in snapshot.rows]


STEPS = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["remove", "add", "align", "copy"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=STEPS)
def test_patched_snapshot_equals_a_fresh_build(seed, steps):
    base = waxman_network(
        TopologyConfig(n_switches=8, n_users=4, qubits_per_switch=4),
        rng=seed,
    )
    base_fibers = sorted(base.fibers, key=lambda f: repr(f.key))
    networks = [base.copy()]
    taken = []  # (snapshot, its rows when taken)
    for batch in steps:
        for op, a, b in batch:
            network = networks[a % len(networks)]
            if op == "remove" and network.n_fibers:
                fiber = sorted(network.fibers, key=lambda f: repr(f.key))[
                    b % network.n_fibers
                ]
                network.remove_fiber(fiber.u, fiber.v)
            elif op == "add":
                missing = [
                    f for f in base_fibers if not network.has_fiber(f.u, f.v)
                ]
                if missing:
                    fiber = missing[b % len(missing)]
                    network.add_fiber(fiber.u, fiber.v, fiber.length)
            elif op == "align":
                fiber = base_fibers[b % len(base_fibers)]
                network.align_fiber_order(base, nodes=(fiber.u, fiber.v))
            elif op == "copy" and len(networks) < 4:
                networks.append(network.copy())
        for network in networks:
            snapshot = network.routing_snapshot()
            assert snapshot == _fresh(network)
            taken.append((snapshot, _frozen(snapshot)))
        for snapshot, rows in taken:
            assert _frozen(snapshot) == rows
