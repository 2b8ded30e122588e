"""Solving on a ledger itself equals fork, solve, then reserve the tree.

The online loop and the incremental router route each request on their
live :class:`~repro.core.ledger.CapacityLedger` and keep what a
feasible solve reserved.  That is exact only if a feasible solve leaves
the ledger where ``fork()`` + solve + ``reserve(switch_usage())`` would
leave a copy of it, and a refused or failed solve leaves it untouched,
peaks and blocked-switch mask included.  Both are checked here for
Algorithms 3 and 4 on random small Waxman networks, partly spent
ledgers, random groups and, at times, a view with fibers cut.

A repair follows the same rule.  The online loop releases a broken
tree on its live ledger and calls ``recover(residual=live)``, which
leaves the repaired or degraded tree held there.  That must equal the
ladder it replaced: fork, release, recover on the fork, then reserve
the recovered tree on the live ledger.  Repairs, audit-rejected
repairs, degradations and abandons are all checked.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.extensions.recovery import (
    STEP_DEGRADE,
    STEP_REPAIR,
    apply_failures,
    recover,
)
from repro.network import NetworkBuilder
from repro.network.link import fiber_key
from repro.topology import TopologyConfig, waxman_network
from repro.verify.verifier import SolutionVerifier

SOLVERS = {"prim": solve_prim, "conflict_free": solve_conflict_free}


def _spent_ledger(network, spends, returns):
    """A ledger over *network* with *spends* reserved, then *returns*
    released, so its peaks sit above its current usage."""
    ledger = CapacityLedger.from_network(network)
    ledger.reserve(spends)
    ledger.release(returns)
    return ledger


def _state(ledger, snapshots):
    return (
        ledger.as_dict(),
        ledger.peak_usage(),
        [bytes(ledger.blocked(snap)) for snap in snapshots],
    )


@settings(max_examples=60, deadline=None)
@given(
    net_seed=st.integers(0, 10_000),
    n_switches=st.integers(3, 12),
    n_users=st.integers(3, 5),
    qubits=st.sampled_from([2, 4, 6]),
    method=st.sampled_from(sorted(SOLVERS)),
    solve_seed=st.integers(0, 1_000),
    data=st.data(),
)
def test_live_solve_equals_fork_then_reserve(
    net_seed, n_switches, n_users, qubits, method, solve_seed, data
):
    network = waxman_network(
        TopologyConfig(
            n_switches=n_switches,
            n_users=n_users,
            avg_degree=3.0,
            qubits_per_switch=qubits,
        ),
        rng=net_seed,
    )
    budgets = network.residual_qubits()
    spends = {
        s: data.draw(st.integers(0, q), label=f"spend {s}")
        for s, q in sorted(budgets.items(), key=lambda kv: repr(kv[0]))
    }
    returns = {
        s: data.draw(st.integers(0, q), label=f"return {s}")
        for s, q in sorted(spends.items(), key=lambda kv: repr(kv[0]))
    }
    users = sorted(network.user_ids, key=repr)
    group = data.draw(
        st.lists(st.sampled_from(users), min_size=2, unique=True),
        label="group",
    )
    fibers = sorted(
        {fiber_key(f.u, f.v) for f in network.fibers}, key=repr
    )
    cuts = data.draw(
        st.lists(st.sampled_from(fibers), max_size=3, unique=True)
        if fibers
        else st.just([]),
        label="cuts",
    )
    view = apply_failures(network, cuts) if cuts else network
    snapshots = [network.routing_snapshot(), view.routing_snapshot()]
    solve = SOLVERS[method]

    live = _spent_ledger(network, spends, returns)
    before = _state(live, snapshots)
    held = solve(view, group, rng=solve_seed, residual=live)

    copy = _spent_ledger(network, spends, returns)
    tried = solve(view, group, rng=solve_seed, residual=copy.fork())
    assert held.feasible == tried.feasible
    assert held.channels == tried.channels
    if tried.feasible:
        copy.reserve(tried.switch_usage())
        assert held.switch_usage() == tried.switch_usage()
        assert _state(live, snapshots) == _state(copy, snapshots)
    else:
        assert _state(live, snapshots) == before


class _RejectRepairs:
    """A verifier stub that refuses every repaired tree."""

    def audit(self, damaged, candidate, users=None):
        return ("rejected",) if candidate.method.endswith("+repair") else ()


VERIFIERS = {
    "none": lambda: None,
    "real": SolutionVerifier,
    "reject-repairs": _RejectRepairs,
}


def _recover_both(build, view, tree, cuts, darks, allow, verifier, snapshots):
    """Recover *tree* on a live ledger and by the frozen fork ladder.

    *build* returns a fresh ledger that holds *tree*.  Asserts both
    leave the same ledger state and tree; returns the step taken.
    """
    usage = tree.switch_usage()

    def run(residual):
        return recover(
            view,
            tree,
            cuts,
            darks,
            residual=residual,
            allow_degradation=allow,
            verifier=VERIFIERS[verifier](),
        )

    live = build()
    live.release(usage)
    step, fixed, _ = run(live)

    copy = build()
    trial = copy.fork()
    trial.release(usage)
    ref_step, ref_fixed, _ = run(trial)
    with copy.transaction():
        copy.release(usage)
        if ref_step:
            copy.reserve(ref_fixed.switch_usage())

    assert step == ref_step
    assert fixed.channels == ref_fixed.channels
    assert fixed.method == ref_fixed.method
    assert _state(live, snapshots) == _state(copy, snapshots)
    return step


@settings(max_examples=60, deadline=None)
@given(
    net_seed=st.integers(0, 10_000),
    n_switches=st.integers(3, 12),
    n_users=st.integers(3, 5),
    qubits=st.sampled_from([2, 4, 6]),
    method=st.sampled_from(sorted(SOLVERS)),
    allow=st.booleans(),
    verifier=st.sampled_from(sorted(VERIFIERS)),
    data=st.data(),
)
def test_live_recover_equals_fork_then_reserve(
    net_seed, n_switches, n_users, qubits, method, allow, verifier, data
):
    network = waxman_network(
        TopologyConfig(
            n_switches=n_switches,
            n_users=n_users,
            avg_degree=3.0,
            qubits_per_switch=qubits,
        ),
        rng=net_seed,
    )
    budgets = network.residual_qubits()
    spends = {
        s: data.draw(st.integers(0, q // 2), label=f"spend {s}")
        for s, q in sorted(budgets.items(), key=lambda kv: repr(kv[0]))
    }
    users = sorted(network.user_ids, key=repr)
    group = data.draw(
        st.lists(st.sampled_from(users), min_size=2, unique=True),
        label="group",
    )
    held = _spent_ledger(network, spends, {})
    tree = SOLVERS[method](network, group, rng=net_seed, residual=held)
    if not tree.feasible:
        return
    fibers = sorted(
        {
            fiber_key(u, v)
            for c in tree.channels
            for u, v in zip(c.path, c.path[1:])
        },
        key=repr,
    )
    switches = sorted(tree.switch_usage(), key=repr)
    cuts = data.draw(
        st.lists(st.sampled_from(fibers), max_size=2, unique=True),
        label="cuts",
    )
    darks = data.draw(
        st.lists(st.sampled_from(switches), max_size=1)
        if switches
        else st.just([]),
        label="darks",
    )
    view = apply_failures(network, cuts, darks)

    def build():
        ledger = _spent_ledger(network, spends, {})
        ledger.reserve(tree.switch_usage())
        return ledger

    _recover_both(
        build,
        view,
        tree,
        cuts,
        darks,
        allow,
        verifier,
        [network.routing_snapshot(), view.routing_snapshot()],
    )


@pytest.fixture
def detour_network(params_q09):
    """a - s1 - b - s2 - c, with a longer b - s3 - c detour.

    The tree is a-s1-b plus b-s2-c.  Cutting s2-c is repaired over s3;
    cutting a-s1 strands a, leaving only {b, c} to degrade to.
    """
    return (
        NetworkBuilder(params_q09)
        .user("a", (0, 0))
        .user("b", (1000, 0))
        .user("c", (2000, 0))
        .switch("s1", (500, 0), qubits=2)
        .switch("s2", (1500, 0), qubits=2)
        .switch("s3", (1500, 800), qubits=2)
        .fiber("a", "s1", 500)
        .fiber("s1", "b", 500)
        .fiber("b", "s2", 500)
        .fiber("s2", "c", 500)
        .fiber("b", "s3", 900)
        .fiber("s3", "c", 900)
        .build()
    )


@pytest.mark.parametrize(
    "cut,allow,verifier,expected",
    [
        (("s2", "c"), False, "real", STEP_REPAIR),
        (("s2", "c"), False, "reject-repairs", ""),
        (("s2", "c"), True, "reject-repairs", STEP_DEGRADE),
        (("a", "s1"), True, "real", STEP_DEGRADE),
        (("a", "s1"), False, "real", ""),
    ],
)
def test_recover_cases_match_the_fork_ladder(
    detour_network, cut, allow, verifier, expected
):
    network = detour_network

    def build():
        ledger = CapacityLedger.from_network(network)
        tree = solve_conflict_free(network, residual=ledger)
        assert [c.path for c in tree.channels] == [
            ("a", "s1", "b"),
            ("b", "s2", "c"),
        ]
        return ledger

    tree = solve_conflict_free(network)
    view = apply_failures(network, [cut])
    step = _recover_both(
        build,
        view,
        tree,
        [cut],
        [],
        allow,
        verifier,
        [network.routing_snapshot(), view.routing_snapshot()],
    )
    assert step == expected
