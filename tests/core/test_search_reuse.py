"""Search reuse inside one solve: Prim (Algorithm 4) and N-Fusion.

Algorithm 1's search reads the residual budget only through its relay
mask (switches holding ≥ 2 free qubits), so within one solve a source's
search result stays valid until a reservation takes some switch below
2.  ``solve_prim`` and ``nfusion._route_star`` keep each source's
result until then instead of searching again after every reservation.

The loops below are the solvers as they stood before that reuse, frozen
as references: the reusing solvers must return the same channels in the
same order and leave the same residual account behind.  Networks use
small integer fiber lengths so that equal-rate channels (ties) are
common, and budgets of 2–4 qubits so that reservations block relays
mid-solve.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import nfusion
from repro.baselines.nfusion import solve_nfusion
from repro.core import prim_based
from repro.core.channel import best_channels_from
from repro.core.ledger import CapacityLedger
from repro.core.optimal import channel_sort_key
from repro.core.prim_based import solve_prim
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.topology import TopologyConfig, waxman_network


class _Infeasible(Exception):
    pass


def _reference_prim(network, users, start, residual) -> MUERPSolution:
    """``solve_prim``'s loop before search reuse, with ``start`` pinned."""
    user_list = resolve_users(network, users)
    connected: List[Hashable] = [start]
    remaining: Set[Hashable] = set(user_list) - {start}
    ledger = residual
    if ledger is None:
        ledger = CapacityLedger.from_network(network)
    selected: List[Channel] = []

    try:
        with ledger.transaction():
            while remaining:
                best: Optional[Channel] = None
                for source in connected:
                    found = best_channels_from(
                        network, source, remaining, ledger
                    )
                    for channel in found.values():
                        if best is None or channel_sort_key(channel) < channel_sort_key(best):
                            best = channel
                if best is None:
                    raise _Infeasible()
                ledger.reserve_channel(best)
                newcomer = best.endpoints[1]
                remaining.discard(newcomer)
                connected.append(newcomer)
                selected.append(best)
    except _Infeasible:
        return infeasible_solution(user_list, "prim")

    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="prim",
        feasible=True,
    )


def _reference_route_star(
    network: QuantumNetwork,
    center: Hashable,
    user_list: List[Hashable],
    ledger: Optional[CapacityLedger] = None,
) -> Optional[List[Channel]]:
    """``nfusion._route_star`` before search reuse.

    It keeps its own account, so the solver's *ledger* is ignored; each
    search reads a ledger over that account's current free qubits.
    """
    residual = network.residual_qubits()
    pending = [u for u in user_list if u != center]
    star: List[Channel] = []
    while pending:
        found = best_channels_from(
            network, center, pending, CapacityLedger(residual)
        )
        best_target = None
        best_channel = None
        for target, channel in found.items():
            if best_channel is None or channel_sort_key(channel) < channel_sort_key(
                best_channel
            ):
                best_target, best_channel = target, channel
        if best_channel is None:
            return None
        for switch in best_channel.switches:
            residual[switch] -= 2
        star.append(best_channel)
        pending.remove(best_target)
    return star


@st.composite
def tied_networks(draw):
    """3–8 users, up to 8 switches of 2–4 qubits, integer fiber lengths."""
    n_users = draw(st.integers(3, 8))
    n_switches = draw(st.integers(0, 8))
    names = [f"u{i}" for i in range(n_users)] + [
        f"s{i}" for i in range(n_switches)
    ]
    order = draw(st.permutations(names))
    network = QuantumNetwork(
        NetworkParams(
            alpha=draw(st.sampled_from([1.0, 0.5, 0.1])),
            swap_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
    )
    for name in order:
        if name.startswith("u"):
            network.add_user(name)
        else:
            network.add_switch(name, qubits=draw(st.integers(2, 4)))
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :]]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            unique=True,
            min_size=n_users - 1,
            max_size=min(len(pairs), 30),
        )
    )
    for u, v in chosen:
        network.add_fiber(u, v, length=float(draw(st.integers(1, 3))))
    return network


@st.composite
def prim_cases(draw):
    network = draw(tied_networks())
    users = draw(st.permutations(network.user_ids))
    start = draw(st.sampled_from(users))
    kind = draw(st.sampled_from(["none", "ledger"]))
    available = {
        s: draw(st.integers(0, q)) for s, q in network.residual_qubits().items()
    }
    return network, users, start, kind, available


def _residual(kind, available, network):
    if kind == "none":
        return None
    return CapacityLedger(available, network.residual_qubits())


def _account(residual):
    return None if residual is None else residual.as_dict()


def _outcome(solution: MUERPSolution):
    return (
        [channel.path for channel in solution.channels],
        solution.feasible,
        solution.extra_log_rate,
    )


@settings(max_examples=300, deadline=None)
@given(case=prim_cases())
def test_prim_matches_frozen_reference(case):
    network, users, start, kind, available = case
    expected_residual = _residual(kind, available, network)
    expected = _reference_prim(network, users, start, expected_residual)
    residual = _residual(kind, available, network)
    solution = solve_prim(network, users, start=start, residual=residual)
    assert _outcome(solution) == _outcome(expected)
    assert _account(residual) == _account(expected_residual)


@settings(max_examples=300, deadline=None)
@given(network=tied_networks(), data=st.data())
def test_nfusion_matches_frozen_reference(network, data):
    users = data.draw(st.permutations(network.user_ids))
    center = data.draw(st.sampled_from(users))
    star = nfusion._route_star(
        network, center, users, CapacityLedger.from_network(network)
    )
    expected_star = _reference_route_star(network, center, users)
    assert (star is None) == (expected_star is None)
    if star is not None:
        assert [c.path for c in star] == [c.path for c in expected_star]

    pinned = data.draw(st.sampled_from([center, None]))
    solution = solve_nfusion(network, users, center=pinned)
    with mock.patch.object(nfusion, "_route_star", _reference_route_star):
        expected = solve_nfusion(network, users, center=pinned)
    assert _outcome(solution) == _outcome(expected)


class _CountingSearch:
    """Stands in for ``best_channels_from`` and records each source."""

    def __init__(self):
        self.sources: List[Hashable] = []

    def __call__(self, network, source, targets, residual=None):
        self.sources.append(source)
        return best_channels_from(network, source, targets, residual)


@pytest.fixture
def counting(monkeypatch):
    def install(module):
        search = _CountingSearch()
        monkeypatch.setattr(module, "best_channels_from", search)
        return search

    return install


class TestSearchCounts:
    @pytest.mark.parametrize("n_users", [3, 6, 9])
    def test_prim_searches_once_per_user_when_nothing_exhausts(
        self, counting, n_users
    ):
        # Q >= 2|U|: a tree's |U| - 1 channels can never take a switch
        # below 2 qubits, so the relay mask never changes.
        network = waxman_network(
            TopologyConfig(
                n_switches=30,
                n_users=n_users,
                qubits_per_switch=2 * n_users,
            ),
            rng=3,
        )
        search = counting(prim_based)
        solution = solve_prim(network, rng=0)
        assert solution.feasible
        assert len(search.sources) == n_users - 1
        assert len(set(search.sources)) == n_users - 1

    @pytest.mark.parametrize("n_users", [3, 6, 9])
    def test_star_searches_once_when_nothing_exhausts(
        self, counting, n_users
    ):
        network = waxman_network(
            TopologyConfig(
                n_switches=30,
                n_users=n_users,
                qubits_per_switch=2 * n_users,
            ),
            rng=3,
        )
        search = counting(nfusion)
        center = network.user_ids[0]
        star = nfusion._route_star(
            network,
            center,
            network.user_ids,
            CapacityLedger.from_network(network),
        )
        assert star is not None and len(star) == n_users - 1
        assert search.sources == [center]

    @staticmethod
    def _hub_network(hub_qubits: int) -> QuantumNetwork:
        # a-h-b costs 2, every direct fiber 10: the first channel always
        # relays through hub h.
        network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
        for user in ("a", "b", "c"):
            network.add_user(user)
        network.add_switch("h", qubits=hub_qubits)
        network.add_fiber("a", "h", length=1.0)
        network.add_fiber("h", "b", length=1.0)
        network.add_fiber("a", "c", length=10.0)
        network.add_fiber("b", "c", length=10.0)
        return network

    def test_prim_researches_every_source_after_exhaustion(self, counting):
        network = self._hub_network(hub_qubits=2)
        search = counting(prim_based)
        solution = solve_prim(network, start="a")
        assert [c.path for c in solution.channels] == [
            ("a", "h", "b"),
            ("a", "c"),
        ]
        # The hub drops to 0: both connected users search again.
        assert search.sources == ["a", "a", "b"]

    def test_prim_reuses_while_the_hub_still_relays(self, counting):
        network = self._hub_network(hub_qubits=4)
        search = counting(prim_based)
        solve_prim(network, start="a")
        assert search.sources == ["a", "b"]

    @pytest.mark.parametrize("hub_qubits,sources", [(2, ["a", "a"]), (4, ["a"])])
    def test_star_researches_only_after_exhaustion(
        self, counting, hub_qubits, sources
    ):
        network = self._hub_network(hub_qubits)
        search = counting(nfusion)
        star = nfusion._route_star(
            network, "a", ["a", "b", "c"], CapacityLedger.from_network(network)
        )
        assert [c.path for c in star] == [("a", "h", "b"), ("a", "c")]
        assert search.sources == sources
