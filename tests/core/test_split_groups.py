"""A group the relay graph splits is refused before any search.

``solve_prim`` and ``solve_conflict_free`` first ask
:func:`~repro.core.channel.relay_joined` whether the requested users
lie in one component of their ledger's relay graph, and return the
infeasible value at once when they do not.  The refusal is exact: every
solve below must equal the same call with the check forced to answer
"joined", down to the rng state it leaves, and the pinned cases fix
which graphs count as split.

The guards raise through ``_require``, so they hold under ``python -O``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import conflict_free, prim_based
from repro.core.channel import relay_joined
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.extensions.recovery import apply_failures
from repro.network.graph import NetworkParams, QuantumNetwork
from tests.core.test_search_reuse import tied_networks


def _require(condition, message):
    """Fail with *message* unless *condition* (kept under ``python -O``)."""
    if not condition:
        raise AssertionError(message)


@contextmanager
def _check_says_joined():
    """Both solvers with the relay-graph check answering "joined"."""
    def joined(network, users, ledger):
        return True

    with mock.patch.object(
        prim_based, "relay_joined", joined
    ), mock.patch.object(conflict_free, "relay_joined", joined):
        yield


def _solve(how, network, users, ledger, seed):
    """One solve on a fork of *ledger*: ``(solution, rng state, account)``."""
    rng = np.random.default_rng(seed)
    residual = ledger.fork()
    if how == "prim":
        solution = solve_prim(network, users, rng=rng, residual=residual)
    else:
        solution = solve_conflict_free(
            network, users, retention=how, rng=rng, residual=residual
        )
    return solution, rng.bit_generator.state, residual.as_dict()


@st.composite
def split_cases(draw):
    """A network, a partly spent ledger over it, a damaged view or the
    network itself, and a requested group of 2 or more users."""
    network = draw(tied_networks(spanning=draw(st.booleans())))
    ledger = CapacityLedger.from_network(network)
    for switch, qubits in network.residual_qubits().items():
        spent = draw(st.integers(0, qubits))
        if spent:
            ledger.reserve({switch: spent})
    view = network
    if draw(st.booleans()):
        fibers = sorted(fiber.key for fiber in network.fibers)
        cuts = (
            draw(st.lists(st.sampled_from(fibers), unique=True, max_size=4))
            if fibers
            else []
        )
        switches = [s.id for s in network.switches]
        darks = (
            draw(st.lists(st.sampled_from(switches), unique=True, max_size=2))
            if switches
            else []
        )
        view = apply_failures(network, cuts, darks)
    users = draw(st.permutations(network.user_ids))
    group = users[: draw(st.integers(2, len(users)))]
    return view, group, ledger, draw(st.integers(0, 2**16))


@settings(max_examples=400, deadline=None)
@given(case=split_cases(), how=st.sampled_from(["prim", "greedy", "random"]))
def test_refusal_matches_the_full_solve(case, how):
    network, users, ledger, seed = case
    got = _solve(how, network, users, ledger, seed)
    with _check_says_joined():
        expected = _solve(how, network, users, ledger, seed)
    _require(got[0] == expected[0], f"{how}: {got[0]} != {expected[0]}")
    _require(got[1] == expected[1], f"{how}: rng state moved")
    _require(got[2] == expected[2], f"{how}: ledger account moved")
    if not relay_joined(network, users, ledger):
        _require(not got[0].feasible, f"{how}: a split group was routed")


def _line(*middle, qubits=4, swap_prob=1.0):
    """Users ``a`` and ``b`` at the ends of a chain through *middle*
    (a name starting with ``u`` is a user, any other a switch of
    *qubits* qubits), 1 km per fiber."""
    network = QuantumNetwork(NetworkParams(alpha=0.1, swap_prob=swap_prob))
    chain = ("a", *middle, "b")
    for name in chain:
        if name in ("a", "b") or name.startswith("u"):
            network.add_user(name)
        else:
            network.add_switch(name, qubits=qubits)
    for left, right in zip(chain, chain[1:]):
        network.add_fiber(left, right, length=1.0)
    return network


def _counted(solve, *args, **kwargs):
    """*solve*'s solution and the counters it published."""
    with obs.collecting() as registry:
        solution = solve(*args, **kwargs)
    return solution, registry.counters()


SOLVERS = {
    "prim": lambda network, users, ledger: solve_prim(
        network, users, rng=0, residual=ledger
    ),
    "greedy": lambda network, users, ledger: solve_conflict_free(
        network, users, residual=ledger
    ),
    "random": lambda network, users, ledger: solve_conflict_free(
        network, users, retention="random", rng=0, residual=ledger
    ),
}


def _refused_unsearched(network, users, ledger):
    """Every solver refuses *users* once, and all but random retention
    (which builds its base for the shuffle) without a search."""
    for how, solve in SOLVERS.items():
        solution, counters = _counted(solve, network, users, ledger.fork())
        _require(not solution.feasible, f"{how}: routed {solution}")
        _require(
            counters.get("core.channel_search.split_groups") == 1,
            f"{how}: split_groups {counters}",
        )
        searches = counters.get("core.dijkstra.calls", 0)
        if how != "random":
            _require(searches == 0, f"{how}: {searches} searches")


class TestPinnedGroups:
    def test_an_unrequested_user_never_bridges(self):
        network = _line("s1", "u0", "s2")
        ledger = CapacityLedger.from_network(network)
        _require(
            not relay_joined(network, ["a", "b"], ledger), "u0 relayed"
        )
        _refused_unsearched(network, ["a", "b"], ledger)
        _require(relay_joined(network, ["a", "b", "u0"], ledger), "split")
        solution = solve_prim(network, ["a", "b", "u0"], rng=0)
        _require(solution.feasible, "the three users were not routed")

    def test_a_direct_user_fiber_joins(self):
        network = _line()
        ledger = CapacityLedger.from_network(network)
        _require(relay_joined(network, ["a", "b"], ledger), "split")
        network = _line("u0")
        ledger = CapacityLedger.from_network(network)
        _require(
            relay_joined(network, ["a", "u0", "b"], ledger), "split at u0"
        )
        for solve in SOLVERS.values():
            solution, counters = _counted(
                solve, network, ["a", "u0", "b"], ledger.fork()
            )
            _require(solution.feasible, f"not routed: {solution}")
            _require(
                "core.channel_search.split_groups" not in counters,
                f"published {counters}",
            )

    def test_a_blocked_switch_splits(self):
        network = _line("s1", "s2")
        ledger = CapacityLedger.from_network(network)
        _require(relay_joined(network, ["a", "b"], ledger), "split idle")
        ledger.reserve({"s2": 3})
        _require(not relay_joined(network, ["a", "b"], ledger), "s2 relayed")
        _refused_unsearched(network, ["a", "b"], ledger)

    def test_a_dark_switch_splits_its_view(self):
        network = _line("s1", "s2")
        ledger = CapacityLedger.from_network(network)
        view = apply_failures(network, failed_switches=["s1"])
        _require(not relay_joined(view, ["a", "b"], ledger), "s1 relayed")
        _refused_unsearched(view, ["a", "b"], ledger)
        _require(relay_joined(network, ["a", "b"], ledger), "split")

    def test_zero_swap_probability_is_left_to_the_solve(self):
        network = _line("s1", swap_prob=0.0)
        ledger = CapacityLedger.from_network(network)
        _require(relay_joined(network, ["a", "b"], ledger), "split")
        for solve in SOLVERS.values():
            got, counters = _counted(solve, network, ["a", "b"], ledger.fork())
            with _check_says_joined():
                expected = solve(network, ["a", "b"], ledger.fork())
            _require(got == expected, f"{got} != {expected}")
            _require(
                "core.channel_search.split_groups" not in counters,
                f"published {counters}",
            )

    def test_prim_draws_its_start_before_refusing(self):
        network = _line("s1", "u0", "s2")
        ledger = CapacityLedger.from_network(network)
        rng = np.random.default_rng(5)
        solve_prim(network, ["a", "b"], rng=rng, residual=ledger)
        reference = np.random.default_rng(5)
        reference.integers(0, 2)
        _require(
            rng.bit_generator.state == reference.bit_generator.state,
            "the start draw was skipped",
        )

    def test_random_retention_shuffles_before_refusing(self):
        # Three users on hub h: Algorithm 2's base holds two channels, so
        # the shuffle draws, and the spent hub splits the group.
        network = QuantumNetwork(NetworkParams(alpha=0.1, swap_prob=1.0))
        network.add_switch("h", qubits=4)
        for user in ("a", "b", "c"):
            network.add_user(user)
            network.add_fiber(user, "h", length=1.0)
        ledger = CapacityLedger.from_network(network)
        ledger.reserve({"h": 3})
        drawn = []
        for check in (True, False):
            rng = np.random.default_rng(11)
            if check:
                solve_conflict_free(
                    network, retention="random", rng=rng, residual=ledger
                )
            else:
                with _check_says_joined():
                    solve_conflict_free(
                        network, retention="random", rng=rng, residual=ledger
                    )
            drawn.append(rng.random())
        _require(drawn[0] == drawn[1], f"rng moved: {drawn}")

    def test_unknown_retention_still_raises_on_a_split_group(self):
        network = _line("s1", "u0", "s2")
        try:
            solve_conflict_free(network, ["a", "b"], retention="bogus")
        except ValueError:
            return
        raise AssertionError("no ValueError")
