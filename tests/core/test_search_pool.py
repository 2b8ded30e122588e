"""The lazy search pool against frozen eager references.

``repro.core.channel._SearchPool`` settles each search of a greedy
solve only as far as the solve's steps ask, pauses it there, and keeps
a paused search across reservations by three block rules (a switch it
only queued is closed in place; a settled one with nothing hanging on
it is harmless, otherwise the search first settles to its targets and
is judged as a complete one; a tied search runs again).  At a settle
tie only that search hands over to the pinned kernel.

The references below are frozen:

* ``_eager_scan`` is Algorithm 2's scan as it stood before the pool:
  every pair searched first, sorted by search weight, cut into rank
  groups, each group sorted by ``(channel_sort_key, pair order)``;
* ``_FullSearches`` stands in for ``ChannelSearches``: a fresh full
  search per source and step on the frozen dict / ``IndexedMinHeap``
  search of ``test_channel_reference``, nothing kept.

Networks have integer fiber lengths or are equal-fiber lattices, so
ties are common and the hand-over runs; ledgers are partly spent and
some networks are damaged views (``apply_failures``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
from repro.baselines import nfusion
from repro.core import channel as channel_module
from repro.core import conflict_free, prim_based
from repro.core.channel import ChannelSearches, ranked_pair_channels
from repro.core.ledger import CapacityLedger
from repro.core.problem import Channel, channel_sort_key
from repro.extensions.recovery import apply_failures
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.topology import grid_network
from repro.utils.unionfind import UnionFind
from tests.core.test_channel_reference import _reference_dijkstra
from tests.core.test_search_reuse import _outcome, tied_networks

RERUNS = "core.dijkstra.exact_reruns"


def _require(condition, message):
    """Fail with *message* unless *condition* (kept under ``python -O``)."""
    if not condition:
        raise AssertionError(message)


def _qubits(network: QuantumNetwork, ledger: Optional[CapacityLedger]):
    return network.residual_qubits() if ledger is None else ledger.as_dict()


def _reference_channels(network, source, targets, qubits):
    """``(weight, target, channel)`` for each reached target, in
    *targets* order, from one frozen full search."""
    dist, prev, _ = _reference_dijkstra(network, source, qubits, None)
    found = []
    for target in targets:
        if target in prev:
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            found.append(
                (dist[target], target, Channel.from_path(network, path[::-1]))
            )
    return found


def _eager_scan(network, users, residual=None) -> List[Channel]:
    """Algorithm 2's scan before the pool, on the frozen search."""
    qubits = _qubits(network, residual)
    pairs = []
    for index, source in enumerate(users[:-1]):
        for weight, _, channel in _reference_channels(
            network, source, users[index + 1 :], qubits
        ):
            pairs.append((weight, len(pairs), channel))
    pairs.sort(key=itemgetter(0))
    scan: List[Channel] = []
    end = 0
    while end < len(pairs):
        start = end
        end += 1
        while end < len(pairs) and pairs[end][0] <= channel_module._within(
            pairs[end - 1][0]
        ):
            end += 1
        group = sorted(
            ((channel_sort_key(c), position, c) for _, position, c in pairs[start:end]),
            key=itemgetter(0, 1),
        )
        scan.extend(entry[2] for entry in group)
    return scan


class _FullSearches:
    """``ChannelSearches`` as a fresh full search per source and step."""

    def __init__(self, network, ledger, users=()) -> None:
        self._network = network
        self._ledger = ledger

    def best(self, source, targets):
        return self.best_among(((source, targets),))

    def best_among(self, requests):
        qubits = self._ledger.as_dict()
        best = None
        for source, targets in requests:
            for _, _, channel in _reference_channels(
                self._network, source, targets, qubits
            ):
                entry = (channel_sort_key(channel), channel)
                if best is None or entry[0] < best[0]:
                    best = entry
        return best

    def reach(self, source, targets) -> Dict[Hashable, float]:
        qubits = self._ledger.as_dict()
        return {
            target: weight
            for weight, target, _ in _reference_channels(
                self._network, source, targets, qubits
            )
        }

    def reserve(self, channel: Channel) -> None:
        self._ledger.reserve_channel(channel)


@st.composite
def lattices(draw):
    """An 8×8 lattice of equal fibers, four corner users and up to four
    more users on random switches: every search ties."""
    network = grid_network(8, 8, qubits_per_switch=draw(st.sampled_from([2, 4])))
    switches = network.switch_ids
    for i in range(draw(st.integers(0, 4))):
        user = f"x{i}"
        network.add_user(user)
        network.add_fiber(user, draw(st.sampled_from(switches)), length=1000.0)
    return network


@st.composite
def pool_cases(draw):
    """A network, its users in a drawn order, a partly spent ledger, and
    optionally a damaged view of the network."""
    network = draw(st.one_of(tied_networks(), lattices()))
    if draw(st.booleans()):
        fibers = [fiber.key for fiber in network.fibers]
        cut = draw(st.lists(st.sampled_from(fibers), max_size=3, unique=True))
        network = apply_failures(network, failed_fibers=cut)
    users = list(draw(st.permutations(network.user_ids)))
    budgets = network.residual_qubits()
    available = {s: draw(st.integers(0, q)) for s, q in budgets.items()}
    return network, users, available, budgets


def _ledger(available, budgets) -> CapacityLedger:
    return CapacityLedger(available, budgets)


@settings(max_examples=150, deadline=None)
@given(case=pool_cases(), cut=st.integers(0, 12))
def test_kruskal_scan_matches_eager_scan(case, cut):
    network, users, available, budgets = case
    expected = _eager_scan(network, users, _ledger(available, budgets))
    scan = ranked_pair_channels(network, users, _ledger(available, budgets))
    # A caller that stops early sees the eager scan's prefix.
    got = [channel for _, channel in zip(range(cut), scan)]
    _require(
        [(c.path, c.log_rate) for c in got]
        == [(c.path, c.log_rate) for c in expected[:cut]],
        f"scan prefix {got} != {expected[:cut]}",
    )
    got += list(scan)
    _require(
        [(c.path, c.log_rate) for c in got]
        == [(c.path, c.log_rate) for c in expected],
        "full scan left the eager scan",
    )


def _kruskal(scan_of, network, users, residual):
    """Algorithm 2's selection over *scan_of*'s channels, skipping
    joined pairs as ``solve_optimal`` does."""
    unions = UnionFind(users)
    if scan_of is None:
        scan = ranked_pair_channels(network, users, residual, skip=unions.connected)
    else:
        scan = iter(scan_of(network, users, residual))
    selected = []
    for channel in scan:
        a, b = channel.endpoints
        if unions.union(a, b):
            selected.append(channel.path)
            if unions.n_components == 1:
                break
    return selected


@settings(max_examples=100, deadline=None)
@given(case=pool_cases())
def test_kruskal_selection_matches_eager_scan(case):
    network, users, available, budgets = case
    _require(
        _kruskal(None, network, users, _ledger(available, budgets)) == _kruskal(
            _eager_scan, network, users, _ledger(available, budgets)
        ),
        '_kruskal(None, network, users, _ledger(availabl...',
    )


def _full(module):
    return mock.patch.object(module, "ChannelSearches", _FullSearches)


@settings(max_examples=150, deadline=None)
@given(case=pool_cases(), data=st.data())
def test_prim_matches_full_searches(case, data):
    network, users, available, budgets = case
    start = data.draw(st.sampled_from(users))
    with _full(prim_based):
        expected_ledger = _ledger(available, budgets)
        expected = prim_based.solve_prim(
            network, users, start=start, residual=expected_ledger
        )
    ledger = _ledger(available, budgets)
    solution = prim_based.solve_prim(network, users, start=start, residual=ledger)
    _require(
        _outcome(solution) == _outcome(expected),
        '_outcome(solution) == _outcome(expected)',
    )
    _require(
        ledger.as_dict() == expected_ledger.as_dict(),
        'ledger.as_dict() == expected_ledger.as_dict()',
    )


@settings(max_examples=150, deadline=None)
@given(case=pool_cases(), data=st.data())
def test_reconnect_matches_full_searches(case, data):
    network, users, available, budgets = case
    joins = data.draw(
        st.lists(st.tuples(st.sampled_from(users), st.sampled_from(users)), max_size=3)
    )

    def run(ledger):
        unions = UnionFind(users)
        for a, b in joins:
            unions.union(a, b)
        added = conflict_free.reconnect(network, users, unions, ledger)
        return [c.path for c in added], unions.n_components

    with _full(conflict_free):
        expected_ledger = _ledger(available, budgets)
        expected = run(expected_ledger)
    ledger = _ledger(available, budgets)
    _require(
        run(ledger) == expected,
        'run(ledger) == expected',
    )
    _require(
        ledger.as_dict() == expected_ledger.as_dict(),
        'ledger.as_dict() == expected_ledger.as_dict()',
    )


@settings(max_examples=100, deadline=None)
@given(case=pool_cases(), data=st.data())
def test_nfusion_star_matches_full_searches(case, data):
    network, users, available, budgets = case
    center = data.draw(st.sampled_from(users))

    def star(ledger):
        found = nfusion._route_star(network, center, users, ledger)
        return None if found is None else [c.path for c in found]

    with _full(nfusion):
        expected_ledger = _ledger(available, budgets)
        expected = star(expected_ledger)
        expected_solution = nfusion.solve_nfusion(network, users)
    ledger = _ledger(available, budgets)
    _require(
        star(ledger) == expected,
        'star(ledger) == expected',
    )
    _require(
        ledger.as_dict() == expected_ledger.as_dict(),
        'ledger.as_dict() == expected_ledger.as_dict()',
    )
    _require(
        _outcome(nfusion.solve_nfusion(network, users)) == _outcome(
            expected_solution
        ),
        '_outcome(nfusion.solve_nfusion(network, users))...',
    )


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------


@pytest.fixture
def searched(monkeypatch):
    """Records the source of every search a ChannelSearches starts."""
    sources: List[Hashable] = []
    search = ChannelSearches._search

    def counted(self, source, targets):
        sources.append(source)
        return search(self, source, targets)

    monkeypatch.setattr(ChannelSearches, "_search", counted)
    return sources


def _network(users: Sequence[str], switches: Dict[str, int], fibers) -> QuantumNetwork:
    network = QuantumNetwork(NetworkParams(alpha=1.0, swap_prob=1.0))
    for user in users:
        network.add_user(user)
    for switch, qubits in switches.items():
        network.add_switch(switch, qubits=qubits)
    for u, v, length in fibers:
        network.add_fiber(u, v, length=length)
    return network


def _state(searches: ChannelSearches, source: Hashable):
    return searches._kept[source].state


class TestBlockRules:
    def test_a_settled_switch_a_queued_node_hangs_on_runs_it_again(self, searched):
        # a settles h (1) and b (2) and pauses with c queued through h
        # (3).  Spending h makes a settle to c under its old mask, and
        # its channel to c crosses h, so it runs again.
        network = _network(
            "abc",
            {"h": 2},
            [("a", "h", 1.0), ("h", "b", 1.0), ("a", "c", 10.0), ("h", "c", 2.0)],
        )
        searches = ChannelSearches(network, CapacityLedger.from_network(network))
        first = searches.best("a", ["b", "c"])[1]
        _require(
            first.path == ("a", "h", "b"),
            'first.path == ("a", "h", "b")',
        )
        _require(
            _state(searches, "a") is not None,
            '_state(searches, "a") is not None',
        )  # paused before c
        searches.reserve(first)
        _require(
            searches.best("a", ["c"])[1].path == ("a", "c"),
            'searches.best("a", ["c"])[1].path == ("a", "c")',
        )
        _require(
            searched == ["a", "a"],
            'searched == ["a", "a"]',
        )

    def test_a_settled_switch_whose_queued_node_leads_elsewhere_is_kept(
        self, searched
    ):
        # a pauses with x queued through h (2.5) and c queued directly
        # (5).  Spending h makes a settle to c under its old mask; its
        # channel to c avoids h, so the search is kept.
        network = _network(
            "abc",
            {"h": 2, "x": 4},
            [
                ("a", "h", 1.0),
                ("h", "b", 1.0),
                ("h", "x", 1.5),
                ("x", "c", 10.0),
                ("a", "c", 5.0),
            ],
        )
        searches = ChannelSearches(network, CapacityLedger.from_network(network))
        first = searches.best("a", ["b", "c"])[1]
        _require(
            first.path == ("a", "h", "b"),
            'first.path == ("a", "h", "b")',
        )
        _require(
            _state(searches, "a") is not None,
            '_state(searches, "a") is not None',
        )
        searches.reserve(first)
        _require(
            searches.best("a", ["c"])[1].path == ("a", "c"),
            'searches.best("a", ["c"])[1].path == ("a", "c")',
        )
        _require(
            searched == ["a"],
            'searched == ["a"]',
        )
        _require(
            _state(searches, "a") is None,
            '_state(searches, "a") is None',
        )  # settled to c

    def test_a_settled_switch_with_nothing_hanging_on_it_is_harmless(
        self, searched
    ):
        # a settles h and b through it, and c directly is still queued:
        # once b is no longer wanted, nothing hangs on h.
        network = _network(
            "abc",
            {"h": 2},
            [("a", "h", 1.0), ("h", "b", 1.0), ("a", "c", 10.0)],
        )
        searches = ChannelSearches(network, CapacityLedger.from_network(network))
        first = searches.best("a", ["b", "c"])[1]
        searches.reserve(first)
        _require(
            _state(searches, "a") is not None,
            '_state(searches, "a") is not None',
        )
        _require(
            searches.best("a", ["c"])[1].path == ("a", "c"),
            'searches.best("a", ["c"])[1].path == ("a", "c")',
        )
        _require(
            searched == ["a"],
            'searched == ["a"]',
        )

    def test_a_queued_switch_is_closed_in_place(self, searched):
        # a pauses with y queued (4) and unsettled, and so does d, with
        # e queued through y.  Spending d-y-e blocks y: a closes y in
        # place and settles on to c around it, while d settles to e
        # under its old mask, finds its channel crosses y, and runs
        # again.
        network = _network(
            "abcde",
            {"h": 4, "y": 2, "z": 4},
            [
                ("a", "h", 1.0),
                ("h", "b", 1.0),
                ("a", "y", 4.0),
                ("y", "c", 0.5),
                ("a", "z", 6.0),
                ("z", "c", 1.0),
                ("d", "y", 1.0),
                ("y", "e", 1.5),
            ],
        )
        searches = ChannelSearches(network, CapacityLedger.from_network(network))
        first = searches.best_among([("a", ["b", "c"]), ("d", ["e"])])
        _require(
            first[1].path == ("a", "h", "b"),
            'first[1].path == ("a", "h", "b")',
        )
        state = _state(searches, "a")
        y = network.routing_snapshot().index["y"]
        _require(
            state is not None and not state[4][y],
            'state is not None and not state[4][y]',
        )  # queued, not settled
        searches.reserve(Channel.from_path(network, ("d", "y", "e")))
        second = searches.best_among([("a", ["c"]), ("d", ["e"])])
        _require(
            second[1].path == ("a", "z", "c"),
            'second[1].path == ("a", "z", "c")',
        )
        _require(
            searched == ["a", "d", "d"],
            'searched == ["a", "d", "d"]',
        )
        _require(
            state[4][y],
            'state[4][y]',
        )  # closed in place


def _collected(call):
    with obs_metrics.collecting() as registry:
        value = call()
    return value, registry.counters()


def test_a_tie_mid_scan_hands_over_only_that_search():
    # u0 reaches switches p and q at one weight: a settle tie.  u1's
    # search has distinct weights and stays on the lazy kernel.
    network = _network(
        ["u0", "u1", "u2"],
        {"p": 4, "q": 4, "r": 4},
        [
            ("u0", "p", 1.0),
            ("u0", "q", 1.0),
            ("p", "u1", 3.0),
            ("q", "u2", 5.0),
            ("u1", "r", 1.5),
            ("r", "u2", 2.0),
        ],
    )
    users = ["u0", "u1", "u2"]
    scan, counters = _collected(lambda: list(ranked_pair_channels(network, users)))
    _require(
        [c.path for c in scan] == [c.path for c in _eager_scan(network, users)],
        '[c.path for c in scan] == [c.path for c in _eag...',
    )
    _require(
        counters[RERUNS] == 1,
        'counters[RERUNS] == 1',
    )
    _require(
        counters["core.dijkstra.calls"] == 2,
        'counters["core.dijkstra.calls"] == 2',
    )


def test_a_cached_pool_search_starts_complete():
    from repro.exec.cache import caching

    network = _network(
        "abc",
        {"h": 4},
        [("a", "h", 1.0), ("h", "b", 1.0), ("h", "c", 3.0), ("a", "c", 10.0)],
    )
    with caching():
        scan = list(ranked_pair_channels(network, ["a", "b", "c"]))
        searches = ChannelSearches(network, CapacityLedger.from_network(network))
        best = searches.best("a", ["b", "c"])
    _require(
        [c.path for c in scan] == [
            c.path for c in _eager_scan(network, ["a", "b", "c"])
        ],
        '[c.path for c in scan] == [ c.path for c in _ea...',
    )
    _require(
        best[1].path == ("a", "h", "b"),
        'best[1].path == ("a", "h", "b")',
    )
    _require(
        searches._kept["a"].state is None,
        'searches._kept["a"].state is None',
    )
