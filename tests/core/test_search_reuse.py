"""Search reuse inside one solve: Prim, N-Fusion and Algorithm 3.

Algorithm 1's search reads the residual budget only through its relay
mask (switches holding ≥ 2 free qubits).  ``solve_prim``,
``nfusion._route_star`` and ``conflict_free.reconnect`` keep each
source's search in a :class:`~repro.core.channel.ChannelSearches` and
run it again only when a reservation blocked a switch on its channel to
a still-wanted user, or the search met an exact tie.

The loops below are the solvers as they stood before any reuse, frozen
as references: the reusing solvers must return the same channels in the
same order and leave the same residual account behind.  N-FUSION's
reference also tries every center in input order, so it pins the
solver's bound on which stars to grow as well.  Networks use
small integer fiber lengths, or lattices of equal fibers, so that
equal-rate channels (ties) are common, and budgets of 2–4 qubits so
that reservations block relays mid-solve; N-FUSION also draws budgets
up to 16 qubits, on which its bound prunes centers.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Set
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines import nfusion
from repro.baselines.nfusion import solve_nfusion
from repro.core import conflict_free
from repro.core.channel import (
    ChannelSearches,
    best_channels_from,
    dijkstra,
    trace_path,
)
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.optimal import channel_sort_key
from repro.core.prim_based import solve_prim
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.core.rates import channel_log_rate_from_lengths
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.topology import TopologyConfig, waxman_network
from repro.utils.unionfind import UnionFind


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


def _reference_nfusion(
    network: QuantumNetwork,
    users: Sequence[Hashable],
    center: Optional[Hashable] = None,
    fusion_penalty: float = nfusion.DEFAULT_FUSION_PENALTY,
) -> MUERPSolution:
    """``solve_nfusion`` before its bound: every center in input order,
    each star grown by :func:`_reference_route_star`."""
    user_list = resolve_users(network, users)
    centers = [center] if center is not None else user_list
    best = None
    for candidate in centers:
        star = _reference_route_star(network, candidate, user_list)
        if star is None:
            continue
        fusion = nfusion.fusion_log_success(
            len(user_list), network.params.swap_prob, fusion_penalty
        )
        total = sum(c.log_rate for c in star) + fusion
        if best is None or total > best[0]:
            best = (total, star)
    if best is None:
        return infeasible_solution(user_list, "nfusion")
    total_log_rate, channels = best
    return MUERPSolution(
        channels=tuple(channels),
        users=frozenset(user_list),
        method="nfusion",
        feasible=True,
        extra_log_rate=total_log_rate - sum(c.log_rate for c in channels),
    )


def _reference_reconnect(
    network: QuantumNetwork,
    users: Sequence[Hashable],
    unions: UnionFind,
    ledger: CapacityLedger,
) -> List[Channel]:
    """``conflict_free.reconnect`` before search reuse."""
    added: List[Channel] = []
    while unions.n_components > 1:
        best: Optional[Channel] = None
        for index, source in enumerate(users):
            targets = [
                t for t in users[index + 1 :] if not unions.connected(source, t)
            ]
            if not targets:
                continue
            found = best_channels_from(network, source, targets, ledger)
            for channel in found.values():
                if best is None or channel_sort_key(channel) < channel_sort_key(best):
                    best = channel
        if best is None:
            break
        ledger.reserve_channel(best)
        unions.union(*best.endpoints)
        added.append(best)
    return added


def _reference_conflict_free(network, users, residual=None) -> MUERPSolution:
    """``solve_conflict_free`` with the frozen reconnect."""
    with mock.patch.object(conflict_free, "reconnect", _reference_reconnect):
        return solve_conflict_free(network, users, residual=residual)


@st.composite
def tied_networks(draw, max_qubits: int = 4, spanning: bool = False):
    """3–8 users, up to 8 switches of 2–*max_qubits* qubits, integer
    fiber lengths.  With *spanning*, the switches (at least one) are
    first joined in a random tree and each user to one of them, so
    every user reaches every other on idle budgets when q > 0."""
    n_users = draw(st.integers(3, 8))
    n_switches = draw(st.integers(1 if spanning else 0, 8))
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
            network.add_switch(name, qubits=draw(st.integers(2, max_qubits)))
    if spanning:
        switches = [name for name in order if name.startswith("s")]
        for index, switch in enumerate(switches[1:], 1):
            network.add_fiber(
                switch,
                draw(st.sampled_from(switches[:index])),
                length=float(draw(st.integers(1, 3))),
            )
        for user in network.user_ids:
            network.add_fiber(
                user,
                draw(st.sampled_from(switches)),
                length=float(draw(st.integers(1, 3))),
            )
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
        if not network.has_fiber(u, v):
            network.add_fiber(u, v, length=float(draw(st.integers(1, 3))))
    return network


def _hub_star(hub, hub_qubits: int, backup=None, swap_prob: float = 1.0):
    """Users fibered to switch ``h`` at the lengths in *hub* (α = 1), in
    insertion order; with *backup*, also to a switch ``g`` that never
    runs out, at the lengths in *backup*."""
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=swap_prob))
    network.add_switch("h", qubits=hub_qubits)
    if backup is not None:
        network.add_switch("g", qubits=2 * len(hub))
    for user, length in hub.items():
        network.add_user(user)
        network.add_fiber(user, "h", length=length)
        if backup is not None:
            network.add_fiber(user, "g", length=backup[user])
    return network


@st.composite
def hub_networks(draw):
    """3–7 users on a hub of 2 to 2(|U|−1) qubits and a backup switch,
    integer fiber lengths.  A center's spokes through the hub detour
    through the backup once the hub is spent, so its total can fall
    to another center's from above."""
    n_users = draw(st.integers(3, 7))
    names = [f"u{i}" for i in range(n_users)]
    return _hub_star(
        {user: float(draw(st.integers(1, 3))) for user in names},
        hub_qubits=2 * draw(st.integers(1, n_users - 1)),
        backup={user: float(draw(st.integers(1, 6))) for user in names},
        swap_prob=draw(st.sampled_from([0.5, 1.0])),
    )


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
@given(
    # Budgets up to 16 qubits on connected switches leave stars room to
    # reach their bounds, so that centers are pruned.
    network=st.one_of(
        tied_networks(), tied_networks(max_qubits=16, spanning=True)
    ),
    data=st.data(),
)
def test_nfusion_matches_frozen_reference(network, data):
    users = list(data.draw(st.permutations(network.user_ids)))
    if data.draw(st.booleans()):
        # Users never relay, so a user whose only fiber ends at another
        # user is reachable from that center alone.
        anchor = data.draw(st.sampled_from(users))
        network.add_user("pendant")
        network.add_fiber("pendant", anchor, length=1.0)
        users.insert(data.draw(st.integers(0, len(users))), "pendant")
    center = data.draw(st.sampled_from(users))
    star = nfusion._route_star(
        network, center, users, CapacityLedger.from_network(network)
    )
    expected_star = _reference_route_star(network, center, users)
    assert (star is None) == (expected_star is None)
    if star is not None:
        assert [c.path for c in star] == [c.path for c in expected_star]

    pinned = data.draw(st.sampled_from([center, None]))
    penalty = data.draw(st.sampled_from([0.5, 0.9, 1.0]))
    solution = solve_nfusion(
        network, users, center=pinned, fusion_penalty=penalty
    )
    expected = _reference_nfusion(network, users, pinned, penalty)
    assert _outcome(solution) == _outcome(expected)


@settings(max_examples=300, deadline=None)
@given(network=hub_networks(), data=st.data())
def test_nfusion_matches_frozen_reference_on_hubs(network, data):
    # A spent hub lets a center tie the winner from a higher bound, so
    # the tie must go to input order, not to the order stars grow in.
    users = data.draw(st.permutations(network.user_ids))
    penalty = data.draw(st.sampled_from([0.5, 0.9, 1.0]))
    solution = solve_nfusion(network, users, fusion_penalty=penalty)
    expected = _reference_nfusion(network, users, fusion_penalty=penalty)
    assert _outcome(solution) == _outcome(expected)


@settings(max_examples=300, deadline=None)
@given(case=prim_cases())
def test_conflict_free_matches_frozen_reference(case):
    network, users, _, kind, available = case
    expected_residual = _residual(kind, available, network)
    expected = _reference_conflict_free(network, users, expected_residual)
    residual = _residual(kind, available, network)
    solution = solve_conflict_free(network, users, residual=residual)
    assert _outcome(solution) == _outcome(expected)
    assert _account(residual) == _account(expected_residual)


def _assert_solvers_match_references(network, users, starts):
    """Prim from each of *starts*, N-FUSION over every center and
    Algorithm 3 against the frozen loops, on idle ledgers."""
    for start in starts:
        assert _outcome(solve_prim(network, users, start=start)) == _outcome(
            _reference_prim(network, users, start, None)
        )
    assert _outcome(solve_nfusion(network, users)) == _outcome(
        _reference_nfusion(network, users)
    )
    assert _outcome(solve_conflict_free(network, users)) == _outcome(
        _reference_conflict_free(network, users)
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(3, 8),
    qubits=st.integers(2, 4),
)
def test_solvers_match_frozen_references_on_waxman(seed, n_users, qubits):
    network = waxman_network(
        TopologyConfig(n_switches=20, n_users=n_users, qubits_per_switch=qubits),
        rng=seed,
    )
    users = network.user_ids
    _assert_solvers_match_references(network, users, users[:3])


def lattice_network(seed: int, qubits: int) -> QuantumNetwork:
    """7×7 switches joined by equal 1,000 km fibers, and 10 users each
    attached by one such fiber to a random switch: exact rate ties
    everywhere."""
    rng = np.random.default_rng(seed)
    network = QuantumNetwork()
    side = 7
    for row in range(side):
        for col in range(side):
            network.add_switch((row, col), qubits=qubits)
    for row in range(side):
        for col in range(side):
            if col + 1 < side:
                network.add_fiber((row, col), (row, col + 1), length=1000.0)
            if row + 1 < side:
                network.add_fiber((row, col), (row + 1, col), length=1000.0)
    for user in range(10):
        name = f"u{user}"
        network.add_user(name)
        cell = int(rng.integers(0, side * side))
        network.add_fiber(name, divmod(cell, side), length=1000.0)
    return network


class TestExactTies:
    """A kept search is exact only if it met no tie; lattices tie
    everywhere, so a solver that skipped that check would pick another
    equal-rate channel than a fresh search does."""

    @pytest.mark.parametrize("qubits", [2, 4])
    def test_lattice_solves_match_frozen_references(self, qubits):
        for seed in range(60):
            network = lattice_network(seed, qubits)
            users = network.user_ids
            _assert_solvers_match_references(network, users, users[:3])

    def test_kernel_flags_ties_on_a_lattice(self):
        network = lattice_network(0, 4)
        _, prev = dijkstra(network, network.user_ids[0])
        assert prev.tied

    def test_kernel_flags_nodes_settling_at_one_weight(self):
        # Next to the 1e6 km first hop the 1e-12 km fibers add nothing
        # in floating point, so every switch settles at one weight and
        # no relaxation meets an equal candidate.  Which switch reaches
        # t first then follows the heap's order of equal weights, which
        # blocking s5, off the chain, changes.
        network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
        network.add_user("a")
        network.add_user("t")
        for switch in ("s0", "s1", "s2", "s3", "s4", "s5"):
            network.add_switch(switch, qubits=2)
        network.add_fiber("a", "s0", length=1e6)
        for u, v in (
            ("s2", "s3"), ("s0", "s5"), ("s3", "s5"), ("s0", "s2"),
            ("s0", "s1"), ("s4", "s5"), ("s2", "t"), ("s1", "t"),
        ):
            network.add_fiber(u, v, length=1e-12)
        idle = CapacityLedger.from_network(network)
        _, prev = dijkstra(network, "a", idle, targets=["t"])
        blocked = idle.fork()
        blocked.reserve({"s5": 2})
        _, fresh = dijkstra(network, "a", blocked, targets=["t"])
        assert trace_path(prev, "a", "t") == ("a", "s0", "s1", "t")
        assert trace_path(fresh, "a", "t") == ("a", "s0", "s2", "t")
        assert prev.tied

    @pytest.mark.parametrize("seed", range(5))
    def test_kernel_flags_no_tie_on_euclidean_lengths(self, seed):
        network = waxman_network(TopologyConfig(n_switches=30, n_users=6), rng=seed)
        for user in network.user_ids:
            _, prev = dijkstra(network, user)
            assert not prev.tied


@pytest.fixture
def counting(monkeypatch):
    """Records the source of every search a ChannelSearches runs."""
    sources: List[Hashable] = []
    search = ChannelSearches._search

    def counted(self, source, targets):
        sources.append(source)
        return search(self, source, targets)

    monkeypatch.setattr(ChannelSearches, "_search", counted)
    return sources


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
        solution = solve_prim(network, rng=0)
        assert solution.feasible
        assert len(counting) == n_users - 1
        assert len(set(counting)) == n_users - 1

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
        center = network.user_ids[0]
        star = nfusion._route_star(
            network,
            center,
            network.user_ids,
            CapacityLedger.from_network(network),
        )
        assert star is not None and len(star) == n_users - 1
        assert counting == [center]

    @staticmethod
    def _hub_network(hub_qubits: int, spur: bool = False) -> QuantumNetwork:
        # a-h-b costs 2, every direct fiber 10: the first channel always
        # relays through hub h.  With the spur h-c (length 2) a's best
        # channel to c also crosses h until h is exhausted.
        network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
        for user in ("a", "b", "c"):
            network.add_user(user)
        network.add_switch("h", qubits=hub_qubits)
        network.add_fiber("a", "h", length=1.0)
        network.add_fiber("h", "b", length=1.0)
        network.add_fiber("a", "c", length=10.0)
        network.add_fiber("b", "c", length=10.0)
        if spur:
            network.add_fiber("h", "c", length=2.0)
        return network

    def test_prim_researches_across_the_blocked_hub(self, counting):
        network = self._hub_network(hub_qubits=2, spur=True)
        solution = solve_prim(network, start="a")
        assert [c.path for c in solution.channels] == [
            ("a", "h", "b"),
            ("a", "c"),
        ]
        # The hub drops to 0 and lies on a's channel to c.
        assert counting == ["a", "a", "b"]

    def test_prim_keeps_searches_off_the_blocked_hub(self, counting):
        network = self._hub_network(hub_qubits=2)
        solution = solve_prim(network, start="a")
        assert [c.path for c in solution.channels] == [
            ("a", "h", "b"),
            ("a", "c"),
        ]
        # The hub drops to 0, but a's channel to c is the direct fiber.
        assert counting == ["a", "b"]

    def test_prim_reuses_while_the_hub_still_relays(self, counting):
        network = self._hub_network(hub_qubits=4)
        solve_prim(network, start="a")
        assert counting == ["a", "b"]

    @pytest.mark.parametrize("hub_qubits,sources", [(2, ["a", "a"]), (4, ["a"])])
    def test_star_researches_only_after_exhaustion(
        self, counting, hub_qubits, sources
    ):
        network = self._hub_network(hub_qubits, spur=True)
        star = nfusion._route_star(
            network, "a", ["a", "b", "c"], CapacityLedger.from_network(network)
        )
        # An exhausted hub forces c onto the direct fiber.
        second = ("a", "c") if hub_qubits == 2 else ("a", "h", "c")
        assert [c.path for c in star] == [("a", "h", "b"), second]
        assert counting == sources

    def test_reconnect_researches_across_the_blocked_hub(self, counting):
        for spur, sources in ((True, ["a", "b", "a", "b"]), (False, ["a", "b"])):
            counting.clear()
            network = self._hub_network(hub_qubits=2, spur=spur)
            ledger = CapacityLedger.from_network(network)
            unions = UnionFind(["a", "b", "c"])
            added = conflict_free.reconnect(network, ["a", "b", "c"], unions, ledger)
            assert [c.path for c in added] == [("a", "h", "b"), ("a", "c")]
            assert counting == sources

    def test_a_new_target_searches_again(self, counting):
        network = self._hub_network(hub_qubits=4)
        searches = ChannelSearches(network, CapacityLedger.from_network(network))
        searches.best("a", ["b"])
        searches.best("a", ["b"])
        searches.best("a", ["b", "c"])
        assert counting == ["a", "a"]


class TestNfusionPruning:
    """N-FUSION grows only the stars its first searches say can still
    win; the others search once and reserve nothing."""

    def test_dominated_centers_search_once(self, counting):
        # a sits next to the hub: B(a) = -18 and, once the two-channel
        # hub is spent, a's star to d detours through g (total -20).
        # Every other center's bound is -22 (6 to a, 8 through g to the
        # other two).
        network = _hub_star(
            {"a": 1.0, "b": 5.0, "c": 5.0, "d": 5.0},
            hub_qubits=4,
            backup=dict.fromkeys("abcd", 4.0),
        )
        users = network.user_ids
        with obs.collecting() as registry:
            solution = solve_nfusion(network, users)
        assert _outcome(solution) == _outcome(_reference_nfusion(network, users))
        assert [c.path for c in solution.channels] == [
            ("a", "h", "b"),
            ("a", "h", "c"),
            ("a", "g", "d"),
        ]
        # The winner's first search, kept, and its one search again
        # once the hub is spent; the pruned centers' first ones only.
        assert counting == ["a", "b", "c", "d", "a"]
        counters = registry.counters()
        assert counters["baselines.nfusion.centers"] == 4
        assert counters["baselines.nfusion.centers_pruned"] == 3

    def test_a_tie_below_its_rounded_bound_still_wins(self, counting):
        # a and b (equal fibers) have stars of equal total T, summed in
        # descending rate order.  Each bound sums the same values in
        # input order, as search weights (two-hop sums, so exactly the
        # rates negated): b's order is the star's, a's (c, d, b) rounds
        # to one ulp below T.  b is grown first, and a must still be grown
        # and win its tie by input index; a cut without the rounding
        # margin would skip it.
        network = _hub_star(
            {"a": 0.1, "c": 0.2, "d": 0.3, "b": 0.1}, hub_qubits=6
        )
        users = network.user_ids
        assert users == ["a", "c", "d", "b"]
        ab, ac, ad = (
            channel_log_rate_from_lengths([0.1, length], 1.0, 1.0)
            for length in (0.1, 0.2, 0.3)
        )
        assert (ac + ad) + ab < (ab + ac) + ad
        solution = solve_nfusion(network, users, fusion_penalty=1.0)
        assert _outcome(solution) == _outcome(
            _reference_nfusion(network, users, fusion_penalty=1.0)
        )
        assert [c.endpoints[0] for c in solution.channels] == ["a"] * 3
        assert counting == users

    def test_the_cut_keeps_exact_ties_and_unbounded_totals(self):
        # -2.0 + 0.5 is exactly -1.5: a bound that can just reach the
        # incumbent is grown.
        assert nfusion._may_reach(-2.0, 0.5, -1.5)
        assert not nfusion._may_reach(-2.0, 0.5, -1.25)
        inf = float("inf")
        assert nfusion._may_reach(-inf, inf, -1.0)
        assert nfusion._may_reach(-5.0, 1e-9, -inf)
        assert nfusion._may_reach(-inf, inf, -inf)
