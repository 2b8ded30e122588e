"""classify/splice ladder unit tests on hand-checkable topologies."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.extensions.recovery import (
    apply_failures,
    region_of,
    repair_solution,
)
from repro.incremental.tree import (
    DISJOINT,
    REPLACEABLE,
    STRUCTURAL,
    broken_channels,
    classify_break,
    splice_solution,
)
from repro.network import NetworkBuilder, NetworkParams
from repro.topology import TopologyConfig, waxman_network
from repro.verify.verifier import SolutionVerifier


def diamond():
    """alice/bob reachable via a short (s0) and a long (s1) relay.

    The optimal tree uses s0; cutting an s0-side fiber leaves the s1
    detour as the unique splice.
    """
    return (
        NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
        .user("alice", (0, 0))
        .user("bob", (2000, 0))
        .switch("s0", (1000, 0), qubits=4)
        .switch("s1", (1000, 900), qubits=4)
        .fiber("alice", "s0", 1000.0)
        .fiber("s0", "bob", 1000.0)
        .fiber("alice", "s1", 1400.0)
        .fiber("s1", "bob", 1400.0)
        .build()
    )


def three_relays():
    """The diamond plus a third, longest relay s2: two detours in turn."""
    return (
        NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
        .user("alice", (0, 0))
        .user("bob", (2000, 0))
        .switch("s0", (1000, 0), qubits=4)
        .switch("s1", (1000, 900), qubits=4)
        .switch("s2", (1000, -1400), qubits=4)
        .fiber("alice", "s0", 1000.0)
        .fiber("s0", "bob", 1000.0)
        .fiber("alice", "s1", 1400.0)
        .fiber("s1", "bob", 1400.0)
        .fiber("alice", "s2", 1800.0)
        .fiber("s2", "bob", 1800.0)
        .build()
    )


def three_user_y():
    """Three users on a Y through a hub, plus a detour around the hub."""
    return (
        NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
        .user("a", (0, 0))
        .user("b", (2000, 0))
        .user("c", (1000, 1800))
        .switch("hub", (1000, 600), qubits=6)
        .switch("alt", (1000, -600), qubits=4)
        .fiber("a", "hub", 1100.0)
        .fiber("b", "hub", 1100.0)
        .fiber("c", "hub", 1200.0)
        .fiber("a", "alt", 1300.0)
        .fiber("b", "alt", 1300.0)
        .build()
    )


class TestClassify:
    def test_disjoint_when_no_tree_element_fails(self):
        net = diamond()
        solution = solve_prim(net)
        label, broken = classify_break(
            solution, dead_fibers=[("alice", "s1")]
        )
        assert label == DISJOINT
        assert broken == ()

    def test_replaceable_on_single_channel_break(self):
        net = diamond()
        solution = solve_prim(net)
        assert len(solution.channels) == 1
        label, broken = classify_break(
            solution, dead_fibers=[("alice", "s0")]
        )
        assert label == REPLACEABLE
        assert broken == solution.channels

    def test_structural_on_multi_channel_break(self):
        net = three_user_y()
        solution = solve_prim(net)
        assert len(solution.channels) == 2
        label, broken = classify_break(solution, dead_switches=["hub"])
        if all("hub" in c.switches for c in solution.channels):
            assert label == STRUCTURAL
            assert len(broken) == 2

    def test_broken_channels_canonicalizes_fiber_order(self):
        net = diamond()
        solution = solve_prim(net)
        assert broken_channels(
            solution, dead_fibers=[("s0", "alice")]
        ) == broken_channels(solution, dead_fibers=[("alice", "s0")])


class TestSplice:
    def test_splice_reconnects_through_the_detour(self):
        net = diamond()
        solution = solve_prim(net)
        assert solution.channels[0].switches == ("s0",)
        damaged = apply_failures(net, [("alice", "s0")])
        broken = solution.channels[0]
        spliced = splice_solution(
            damaged, solution, broken, CapacityLedger.from_network(damaged)
        )
        assert spliced is not None
        assert spliced.feasible
        assert spliced.method.endswith("+splice")
        assert spliced.channels[-1].switches == ("s1",)
        assert not SolutionVerifier().audit(
            damaged, spliced, users=sorted(solution.users, key=repr)
        )

    def test_splice_method_tag_is_idempotent(self):
        # Splice twice: s0's channel breaks, then the s1 detour that
        # replaced it; the second splice starts from a "+splice" tree.
        net = three_relays()
        solution = solve_prim(net)
        damaged = apply_failures(net, [("alice", "s0")])
        once = splice_solution(
            damaged,
            solution,
            solution.channels[0],
            CapacityLedger.from_network(damaged),
        )
        assert once.channels[-1].switches == ("s1",)
        damaged2 = apply_failures(net, [("alice", "s0"), ("alice", "s1")])
        twice = splice_solution(
            damaged2,
            once,
            once.channels[-1],
            CapacityLedger.from_network(damaged2),
        )
        assert twice is not None
        assert twice.channels[-1].switches == ("s2",)
        assert once.method.count("+splice") == 1
        assert twice.method.count("+splice") == 1

    def test_splice_fails_outside_the_region_mask(self):
        # Radius 0 keeps only the broken channel's own path in the
        # region; the detour switch s1 is masked to zero qubits.
        net = diamond()
        solution = solve_prim(net)
        damaged = apply_failures(net, [("alice", "s0")])
        spliced = splice_solution(
            damaged,
            solution,
            solution.channels[0],
            CapacityLedger.from_network(damaged),
            radius=0,
        )
        assert spliced is None

    def test_splice_region_bounds_the_search(self):
        net = diamond()
        solution = solve_prim(net)
        region = region_of(net, solution.channels[0].path, radius=1)
        assert {"alice", "s0", "bob"} <= set(region)

    def test_splice_refuses_unknown_channel(self):
        net = diamond()
        solution = solve_prim(net)
        damaged = apply_failures(net, [("alice", "s0")])
        other = three_user_y()
        foreign = solve_prim(other).channels[0]
        assert (
            splice_solution(
                damaged, solution, foreign, CapacityLedger.from_network(damaged)
            )
            is None
        )

    def test_splice_respects_residual_budget(self):
        # With the detour switch's qubits already consumed, the splice
        # has nowhere to route and must escalate.
        net = diamond()
        solution = solve_prim(net)
        damaged = apply_failures(net, [("alice", "s0")])
        residual = CapacityLedger.from_network(damaged)
        residual.reserve({"s1": residual.available("s1")})
        spliced = splice_solution(
            damaged, solution, solution.channels[0], residual
        )
        assert spliced is None

    def test_multiuser_single_break_splices_one_edge(self):
        net = three_user_y()
        # Starting from "b" makes the first channel's first fiber a
        # replaceable break that a splice can route around.
        solution = solve_prim(net, start="b")
        target = solution.channels[0]
        dead = [
            (u, v)
            for u, v in zip(target.path, target.path[1:])
        ][:1]
        label, broken = classify_break(solution, dead_fibers=dead)
        assert label == REPLACEABLE
        damaged = apply_failures(net, dead)
        spliced = splice_solution(
            damaged, solution, broken[0], CapacityLedger.from_network(damaged)
        )
        assert spliced is not None
        assert len(spliced.channels) == len(solution.channels)
        assert not SolutionVerifier().audit(
            damaged, spliced, users=sorted(solution.users, key=repr)
        )


@st.composite
def _single_breaks(draw):
    """A Waxman network, its Prim tree, one cut fiber on a tree channel
    and a residual with some qubits already spent elsewhere."""
    config = TopologyConfig(n_switches=15, n_users=4, qubits_per_switch=4)
    net = waxman_network(config, rng=draw(st.integers(0, 10_000)))
    solution = solve_prim(net, rng=draw(st.integers(0, 10_000)))
    assume(solution.feasible)
    channel = draw(st.sampled_from(solution.channels))
    hops = list(zip(channel.path, channel.path[1:]))
    cut = draw(st.sampled_from(hops))
    label, broken = classify_break(solution, dead_fibers=[cut])
    assume(label == REPLACEABLE)
    damaged = apply_failures(net, [cut])
    residual = CapacityLedger.from_network(damaged)
    switches = sorted(damaged.switch_ids, key=repr)
    spent = draw(
        st.lists(
            st.integers(0, 4), min_size=len(switches), max_size=len(switches)
        )
    )
    residual.reserve_capped(dict(zip(switches, spent)))
    return net, damaged, solution, cut, broken[0], residual


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_single_breaks())
def test_unbounded_splice_is_the_repair(case):
    """A splice whose region covers the graph is the repair, bar the tag."""
    net, damaged, solution, cut, broken, residual = case
    spliced = splice_solution(
        damaged, solution, broken, residual, radius=len(damaged)
    )
    repaired = repair_solution(
        net, solution, [cut], residual=residual, damaged=damaged
    ).solution
    assert (spliced is None) == (not repaired.feasible)
    if spliced is not None:
        assert spliced.channels == repaired.channels
        assert spliced.method.endswith("+splice")
        assert repaired.method.endswith("+repair")
