"""Channels are built only when they can win a greedy step.

A greedy step (a round of Prim, Algorithm 3's reconnect or N-FUSION's
star, and Algorithm 2's Kruskal scan) takes one channel in
``channel_sort_key`` order.  The builders rank the candidates by search
weight first and build a channel only within the rank margin of the
least weight (the ``repro.core.channel`` docstring derives it): a
search weight is the log rate negated only up to rounding, so a
candidate of larger weight can still have the higher rate.

The references below are the builders as they stood when every reached
target's channel was built and sorted: Algorithm 2 on the eager
``best_channels_from`` and ``sorted(channel_sort_key)``, and Algorithm 3
on that Algorithm 2 and the frozen reconnect of ``test_search_reuse``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Hashable, List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import channel as channel_module
from repro.core import conflict_free
from repro.core.channel import (
    ChannelSearches,
    all_pairs_best_channels,
    best_channels_from,
    dijkstra,
    ranked_pair_channels,
)
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.optimal import channel_sort_key, solve_optimal
from repro.core.prim_based import solve_prim
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.utils.unionfind import UnionFind
from tests.core.test_search_reuse import (
    _outcome,
    _reference_prim,
    _reference_reconnect,
    lattice_network,
    tied_networks,
)


def _reference_optimal(network, users=None) -> MUERPSolution:
    """``solve_optimal`` when it built and sorted every pair's channel."""
    user_list = resolve_users(network, users)
    idle = CapacityLedger.from_network(network)
    pairwise: Dict[frozenset, Channel] = {}
    for index, source in enumerate(user_list[:-1]):
        found = best_channels_from(network, source, user_list[index + 1 :], idle)
        for target, channel in found.items():
            pairwise[frozenset((source, target))] = channel
    candidates = sorted(pairwise.values(), key=channel_sort_key)

    unions = UnionFind(user_list)
    selected: List[Channel] = []
    for channel in candidates:
        a, b = channel.endpoints
        if unions.union(a, b):
            selected.append(channel)
            if unions.n_components == 1:
                break
    if unions.n_components != 1:
        return infeasible_solution(user_list, "optimal")
    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="optimal",
        feasible=True,
    )


def _reference_conflict_free(network, users=None, residual=None):
    """``solve_conflict_free`` on the eager Algorithm 2 and the frozen
    reconnect."""
    with mock.patch.object(
        conflict_free, "solve_optimal", _reference_optimal
    ), mock.patch.object(conflict_free, "reconnect", _reference_reconnect):
        return solve_conflict_free(network, users, residual=residual)


def _rounding_fork() -> QuantumNetwork:
    """``s`` reaches ``t1`` over four hops and ``t2`` over one fiber.

    The hop-by-hop sum ``((0.1 + 0.2) + 0.03) + 0.03`` rounds two ulps
    above the ``fsum`` of the same lengths, and ``t2``'s fiber sits
    between the two: ``t1`` has the larger search weight and the
    higher rate.
    """
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
    for user in ("s", "t1", "t2"):
        network.add_user(user)
    for switch in ("a", "b", "c"):
        network.add_switch(switch, qubits=8)
    network.add_fiber("s", "a", length=0.1)
    network.add_fiber("a", "b", length=0.2)
    network.add_fiber("b", "c", length=0.03)
    network.add_fiber("c", "t1", length=0.03)
    network.add_fiber("s", "t2", length=math.nextafter(0.36, 1.0))
    return network


class TestRankMargin:
    def test_weights_and_rates_order_the_targets_apart(self):
        network = _rounding_fork()
        dist, _ = dijkstra(network, "s")
        found = best_channels_from(network, "s", ["t1", "t2"])
        assert dist["t1"] > dist["t2"]
        assert found["t1"].log_rate > found["t2"].log_rate

        searches = ChannelSearches(
            network, CapacityLedger.from_network(network)
        )
        best = searches.best("s", ["t1", "t2"])
        assert best is not None
        assert best[1].path == ("s", "a", "b", "c", "t1")
        assert best == (channel_sort_key(found["t1"]), found["t1"])

    def test_solvers_pick_the_higher_rate(self):
        network = _rounding_fork()
        for start in network.user_ids:
            assert _outcome(solve_prim(network, start=start)) == _outcome(
                _reference_prim(network, None, start, None)
            )
        optimal = solve_optimal(network)
        assert _outcome(optimal) == _outcome(_reference_optimal(network))
        assert [c.path for c in optimal.channels] == [
            ("s", "a", "b", "c", "t1"),
            ("s", "t2"),
        ]
        assert _outcome(solve_conflict_free(network)) == _outcome(
            _reference_conflict_free(network)
        )

    def test_the_limit_stays_positive_and_admits_all_at_infinity(self):
        assert channel_module._within(0.0) == 1e-9
        assert channel_module._within(math.inf) == math.inf


def _pair_network(gap_lengths) -> QuantumNetwork:
    """User ``s`` fibered straight to one user per length (α = 1, so
    each pair's search weight is its length)."""
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=0.9))
    network.add_user("s")
    for index, length in enumerate(gap_lengths):
        network.add_user(f"x{index}")
        network.add_fiber("s", f"x{index}", length=length)
    return network


@pytest.fixture
def built(monkeypatch):
    """Records the target of every channel built from a search."""
    targets: List[Hashable] = []
    channel = channel_module._PrevView.channel

    def counted(self, source, target, params):
        targets.append(target)
        return channel(self, source, target, params)

    monkeypatch.setattr(channel_module._PrevView, "channel", counted)
    return targets


class TestKruskalGroups:
    def test_a_pair_one_margin_up_shares_the_group(self, built):
        # x1 sits exactly one margin above x0: the two are built
        # together, and x2, far above, only when the scan reaches it.
        low = 0.5
        network = _pair_network([low, channel_module._within(low), 0.9])
        scan = ranked_pair_channels(network, network.user_ids)
        assert next(scan).path == ("s", "x0")
        assert built == ["x0", "x1"]
        assert [c.path for c in scan] == [("s", "x1"), ("s", "x2")]
        assert built == ["x0", "x1", "x2"]

    def test_a_pair_past_the_margin_starts_a_group(self, built):
        low = 0.5
        above = math.nextafter(channel_module._within(low), 1.0)
        network = _pair_network([low, above])
        scan = ranked_pair_channels(network, network.user_ids)
        assert next(scan).path == ("s", "x0")
        assert built == ["x0"]

    def test_joined_pairs_are_not_built(self, built):
        # (s, x0) and (s, x1) join x0 and x1 before the pair (x0, x1)
        # comes up, so it is skipped unbuilt; (s, x2) spans the tree.
        network = _pair_network([0.2, 0.3, 0.5])
        network.add_fiber("x0", "x1", length=0.4)
        solution = solve_optimal(network)
        assert built == ["x0", "x1", "x2"]
        assert [c.path for c in solution.channels] == [
            ("s", "x0"),
            ("s", "x1"),
            ("s", "x2"),
        ]
        assert _outcome(solution) == _outcome(_reference_optimal(network))

    def test_unskipped_scan_is_the_full_sort(self):
        network = lattice_network(3, qubits=4)
        users = network.user_ids
        pairwise = all_pairs_best_channels(network, users)
        expected = sorted(pairwise.values(), key=channel_sort_key)
        assert [c.path for c in ranked_pair_channels(network, users)] == [
            c.path for c in expected
        ]


@settings(max_examples=300, deadline=None)
@given(network=tied_networks(), data=st.data())
def test_algorithms_2_and_3_match_eager_references(network, data):
    users = data.draw(st.permutations(network.user_ids))
    pairwise = all_pairs_best_channels(network, users)
    expected = sorted(pairwise.values(), key=channel_sort_key)
    assert list(ranked_pair_channels(network, users)) == expected
    assert _outcome(solve_optimal(network, users)) == _outcome(
        _reference_optimal(network, users)
    )
    available = {
        s: data.draw(st.integers(0, q))
        for s, q in network.residual_qubits().items()
    }
    residual = CapacityLedger(available, network.residual_qubits())
    expected_residual = CapacityLedger(available, network.residual_qubits())
    solution = solve_conflict_free(network, users, residual=residual)
    assert _outcome(solution) == _outcome(
        _reference_conflict_free(network, users, expected_residual)
    )
    assert residual.as_dict() == expected_residual.as_dict()


@pytest.mark.parametrize("qubits", [2, 4])
def test_algorithms_2_and_3_match_eager_references_on_lattices(qubits):
    for seed in range(30):
        network = lattice_network(seed, qubits)
        assert _outcome(solve_optimal(network)) == _outcome(
            _reference_optimal(network)
        )
        assert _outcome(solve_conflict_free(network)) == _outcome(
            _reference_conflict_free(network)
        )


class TestTargetChecks:
    def test_best_rejects_a_switch_target(self):
        network = _rounding_fork()
        searches = ChannelSearches(
            network, CapacityLedger.from_network(network)
        )
        with pytest.raises(ValueError):
            searches.best("s", ["t1", "a"])
        with pytest.raises(ValueError):
            searches.reach("s", ["b"])

    @staticmethod
    def _spur_hub() -> QuantumNetwork:
        # a-h-b through a two-qubit hub, a-c direct and h-c a spur: a
        # searches again once the hub is spent.
        network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
        for user in ("a", "b", "c"):
            network.add_user(user)
        network.add_switch("h", qubits=2)
        network.add_fiber("a", "h", length=1.0)
        network.add_fiber("h", "b", length=1.0)
        network.add_fiber("a", "c", length=10.0)
        network.add_fiber("b", "c", length=10.0)
        network.add_fiber("h", "c", length=2.0)
        return network

    @staticmethod
    def _checked(monkeypatch, network) -> List[Hashable]:
        checked: List[Hashable] = []
        is_user = network.is_user

        def counted(node):
            checked.append(node)
            return is_user(node)

        monkeypatch.setattr(network, "is_user", counted)
        return checked

    def test_each_target_is_checked_once_per_solve(self, monkeypatch):
        network = self._spur_hub()
        checked = self._checked(monkeypatch, network)
        users = ["a", "b", "c"]
        with obs.collecting() as registry:
            added = conflict_free.reconnect(
                network,
                users,
                UnionFind(users),
                CapacityLedger.from_network(network),
            )
        assert [c.path for c in added] == [("a", "h", "b"), ("a", "c")]
        assert registry.counters()["core.dijkstra.calls"] == 4
        # Each search checks its source (a and b twice each); b and c
        # are checked once as targets, though c is wanted by all four.
        assert Counter(checked) == {"a": 2, "b": 3, "c": 1}

    def test_resolved_users_are_not_checked_again(self, monkeypatch):
        network = self._spur_hub()
        checked = self._checked(monkeypatch, network)
        solution = solve_prim(network, start="a")
        assert [c.path for c in solution.channels] == [
            ("a", "h", "b"),
            ("a", "c"),
        ]
        # Only the sources of Prim's three searches.
        assert Counter(checked) == {"a": 2, "b": 1}
