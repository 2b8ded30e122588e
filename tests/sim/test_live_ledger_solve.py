"""Solving on a ledger itself equals fork, solve, then reserve the tree.

The online loop and the incremental router route each request on their
live :class:`~repro.core.ledger.CapacityLedger` and keep what a
feasible solve reserved.  That is exact only if a feasible solve leaves
the ledger where ``fork()`` + solve + ``reserve(switch_usage())`` would
leave a copy of it, and a refused or failed solve leaves it untouched,
peaks and blocked-switch mask included.  Both are checked here for
Algorithms 3 and 4 on random small Waxman networks, partly spent
ledgers, random groups and, at times, a view with fibers cut.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.extensions.recovery import apply_failures
from repro.network.link import fiber_key
from repro.topology import TopologyConfig, waxman_network

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
