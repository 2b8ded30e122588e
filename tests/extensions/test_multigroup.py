"""Tests for concurrent multi-group routing."""

from __future__ import annotations

import math

import pytest

from repro.core.tree import validate_solution
from repro.extensions.multigroup import (
    GroupRequest,
    GroupRoutingResult,
    route_groups,
)
from repro.network import NetworkBuilder, NetworkParams
from repro.topology import TopologyConfig, waxman_network


@pytest.fixture
def eight_user_waxman():
    config = TopologyConfig(
        n_switches=20, n_users=8, avg_degree=5.0, qubits_per_switch=6
    )
    return waxman_network(config, rng=77)


def two_groups(network):
    users = network.user_ids
    return [
        GroupRequest("alpha", tuple(users[:4])),
        GroupRequest("beta", tuple(users[4:8])),
    ]


class TestGroupRequest:
    def test_valid(self):
        GroupRequest("g", ("a", "b"))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GroupRequest("g", ("a",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            GroupRequest("g", ("a", "a"))


class TestRouteGroups:
    def test_both_groups_routed(self, eight_user_waxman):
        result = route_groups(eight_user_waxman, two_groups(eight_user_waxman))
        assert set(result.solutions) == {"alpha", "beta"}
        assert result.n_feasible >= 1

    def test_solutions_validate_individually(self, eight_user_waxman):
        result = route_groups(eight_user_waxman, two_groups(eight_user_waxman))
        for solution in result.solutions.values():
            if solution.feasible:
                report = validate_solution(
                    eight_user_waxman, solution, enforce_capacity=False
                )
                assert report.ok, str(report)

    def test_combined_usage_within_budget(self, eight_user_waxman):
        """The defining invariant: groups share one switch budget."""
        result = route_groups(eight_user_waxman, two_groups(eight_user_waxman))
        budgets = eight_user_waxman.residual_qubits()
        combined = {}
        for solution in result.solutions.values():
            for switch, used in solution.switch_usage().items():
                combined[switch] = combined.get(switch, 0) + used
        for switch, used in combined.items():
            assert used <= budgets[switch], f"{switch} over shared budget"

    def test_contention_forces_failure(self, params_q09):
        """Two groups competing for a single 2-qubit corridor: only one
        can cross."""
        builder = NetworkBuilder(params_q09)
        builder.user("a1", (0, 0)).user("a2", (2000, 0))
        builder.user("b1", (0, 500)).user("b2", (2000, 500))
        builder.switch("mid", (1000, 250), qubits=2)
        builder.fiber("a1", "mid", 1100).fiber("mid", "a2", 1100)
        builder.fiber("b1", "mid", 1100).fiber("mid", "b2", 1100)
        net = builder.build()
        groups = [
            GroupRequest("A", ("a1", "a2")),
            GroupRequest("B", ("b1", "b2")),
        ]
        result = route_groups(net, groups, order="given")
        assert result.n_feasible == 1
        assert result.solutions["A"].feasible
        assert not result.solutions["B"].feasible
        assert result.min_rate == 0.0

    def test_failed_group_leaks_no_capacity(self, params_q09):
        """If group A fails, group B must see the untouched budget."""
        builder = NetworkBuilder(params_q09)
        # A's users are isolated: A always fails.
        builder.user("a1", (0, 0)).user("a2", (10_000, 10_000))
        builder.user("b1", (0, 500)).user("b2", (2000, 500))
        builder.switch("mid", (1000, 250), qubits=2)
        builder.fiber("b1", "mid", 1100).fiber("mid", "b2", 1100)
        builder.fiber("a1", "b1", 500)  # a1 touches the graph but a2 doesn't
        net = builder.build()
        groups = [
            GroupRequest("A", ("a1", "a2")),
            GroupRequest("B", ("b1", "b2")),
        ]
        result = route_groups(net, groups, order="given")
        assert not result.solutions["A"].feasible
        assert result.solutions["B"].feasible

    def test_order_policies(self, eight_user_waxman):
        users = eight_user_waxman.user_ids
        groups = [
            GroupRequest("small", tuple(users[:2])),
            GroupRequest("large", tuple(users[2:8])),
        ]
        largest = route_groups(eight_user_waxman, groups, order="largest_first")
        assert largest.order == ("large", "small")
        smallest = route_groups(
            eight_user_waxman, groups, order="smallest_first"
        )
        assert smallest.order == ("small", "large")
        given = route_groups(eight_user_waxman, groups, order="given")
        assert given.order == ("small", "large")

    def test_unknown_order_rejected(self, eight_user_waxman):
        with pytest.raises(ValueError):
            route_groups(
                eight_user_waxman,
                two_groups(eight_user_waxman),
                order="alphabetical",
            )

    def test_unknown_method_rejected(self, eight_user_waxman):
        with pytest.raises(ValueError):
            route_groups(
                eight_user_waxman,
                two_groups(eight_user_waxman),
                method="optimal",
            )

    def test_duplicate_names_rejected(self, eight_user_waxman):
        users = eight_user_waxman.user_ids
        groups = [
            GroupRequest("same", tuple(users[:2])),
            GroupRequest("same", tuple(users[2:4])),
        ]
        with pytest.raises(ValueError):
            route_groups(eight_user_waxman, groups)

    def test_conflict_free_method(self, eight_user_waxman):
        result = route_groups(
            eight_user_waxman,
            two_groups(eight_user_waxman),
            method="conflict_free",
        )
        assert set(result.solutions) == {"alpha", "beta"}

    def test_product_rate(self, eight_user_waxman):
        result = route_groups(eight_user_waxman, two_groups(eight_user_waxman))
        expected = 1.0
        for solution in result.solutions.values():
            expected *= solution.rate
        assert math.isclose(result.product_rate, expected)

    def test_all_feasible_flag(self, eight_user_waxman):
        result = route_groups(eight_user_waxman, two_groups(eight_user_waxman))
        assert result.all_feasible == (result.n_feasible == 2)


class TestOptimizeGroupOrder:
    def test_order_matters_constructed_case(self, params_q09):
        """A greedy-hostile instance: serving the big group first uses
        the shared corridor and starves the pair; the reverse order
        serves both.  The optimizer must find the good order."""
        from repro.extensions.multigroup import optimize_group_order

        builder = NetworkBuilder(params_q09)
        builder.user("a1", (0, 0)).user("a2", (2000, 0))
        builder.user("b1", (0, 400)).user("b2", (2000, 400)).user(
            "b3", (1000, 800)
        )
        # Corridor switch: only one channel.
        builder.switch("mid", (1000, 200), qubits=2)
        builder.fiber("a1", "mid", 1100).fiber("mid", "a2", 1100)
        builder.fiber("b1", "mid", 1100).fiber("mid", "b2", 1100)
        # B's users also have an expensive bypass, A's do not.
        builder.switch("bypass", (1000, 1200), qubits=4)
        builder.fiber("b1", "bypass", 1500).fiber("bypass", "b2", 1500)
        builder.fiber("b3", "bypass", 500)
        net = builder.build()
        groups = [
            GroupRequest("B", ("b1", "b2", "b3")),  # listed first
            GroupRequest("A", ("a1", "a2")),
        ]
        # largest_first serves B first; B grabs the corridor, A dies.
        naive = route_groups(net, groups, order="largest_first", rng=0)
        optimized = optimize_group_order(net, groups, rng=0)
        assert optimized.n_feasible >= naive.n_feasible
        assert optimized.n_feasible == 2
        assert optimized.product_rate > 0.0

    def test_never_worse_than_heuristic_orders(self, eight_user_waxman):
        from repro.extensions.multigroup import optimize_group_order

        groups = two_groups(eight_user_waxman)
        optimized = optimize_group_order(eight_user_waxman, groups, rng=1)
        for order in ("largest_first", "smallest_first", "given"):
            heuristic = route_groups(
                eight_user_waxman, groups, order=order, rng=1
            )
            assert optimized.n_feasible >= heuristic.n_feasible
            if optimized.n_feasible == heuristic.n_feasible:
                assert (
                    optimized.product_rate >= heuristic.product_rate - 1e-12
                )

    def test_min_objective(self, eight_user_waxman):
        from repro.extensions.multigroup import optimize_group_order

        groups = two_groups(eight_user_waxman)
        result = optimize_group_order(
            eight_user_waxman, groups, objective="min", rng=2
        )
        assert result.min_rate >= 0.0

    def test_unknown_objective_rejected(self, eight_user_waxman):
        from repro.extensions.multigroup import optimize_group_order

        with pytest.raises(ValueError):
            optimize_group_order(
                eight_user_waxman,
                two_groups(eight_user_waxman),
                objective="mean",
            )

    def test_random_sampling_path(self, eight_user_waxman):
        """With max_permutations below n! the sampler path is taken."""
        from repro.extensions.multigroup import optimize_group_order

        users = eight_user_waxman.user_ids
        groups = [
            GroupRequest(f"g{i}", (users[i], users[i + 4])) for i in range(4)
        ]
        result = optimize_group_order(
            eight_user_waxman, groups, max_permutations=5, rng=3
        )
        assert len(result.order) == 4


class TestSharedLedger:
    """route_groups over a caller-supplied transactional ledger."""

    def test_supplied_ledger_keeps_successful_reservations(
        self, eight_user_waxman
    ):
        from repro.core.ledger import CapacityLedger

        ledger = CapacityLedger.from_network(eight_user_waxman)
        result = route_groups(
            eight_user_waxman,
            two_groups(eight_user_waxman),
            rng=0,
            ledger=ledger,
        )
        assert result.all_feasible
        total = {}
        for solution in result.solutions.values():
            for switch, qubits in solution.switch_usage().items():
                total[switch] = total.get(switch, 0) + qubits
        for switch, qubits in total.items():
            assert ledger.used(switch) == qubits

    def test_mid_sequence_exception_rolls_every_group_back(
        self, eight_user_waxman, monkeypatch
    ):
        import repro.extensions.multigroup as mg
        from repro.core.ledger import CapacityLedger

        real = mg.solve_prim
        calls = []

        def explode_on_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("solver crash mid-sequence")
            return real(*args, **kwargs)

        monkeypatch.setattr(mg, "solve_prim", explode_on_second)
        ledger = CapacityLedger.from_network(eight_user_waxman)
        with pytest.raises(RuntimeError):
            route_groups(
                eight_user_waxman,
                two_groups(eight_user_waxman),
                rng=0,
                ledger=ledger,
            )
        # The first group's reservation must not leak into the
        # caller's ledger: the whole sequence is one transaction.
        assert all(ledger.used(s) == 0 for s in ledger)

    def test_ledger_telemetry_fires(self, eight_user_waxman):
        from repro.obs import metrics as obs_metrics

        with obs_metrics.collecting() as registry:
            route_groups(
                eight_user_waxman, two_groups(eight_user_waxman), rng=0
            )
        counters = registry.counters()
        assert counters.get("core.ledger.transactions", 0) >= 1
        assert counters.get("core.ledger.reserves", 0) >= 1
        assert counters.get("core.ledger.qubits_reserved", 0) > 0

    def test_default_ledger_matches_legacy_behavior(self, eight_user_waxman):
        groups = two_groups(eight_user_waxman)
        with_default = route_groups(eight_user_waxman, groups, rng=0)
        from repro.core.ledger import CapacityLedger

        ledger = CapacityLedger.from_network(eight_user_waxman)
        with_supplied = route_groups(
            eight_user_waxman, groups, rng=0, ledger=ledger
        )
        assert {
            name: sol.rate for name, sol in with_default.solutions.items()
        } == {
            name: sol.rate for name, sol in with_supplied.solutions.items()
        }

    def test_infeasible_group_leaves_no_phantom_peak(self, tight_star_network):
        from repro.core.ledger import CapacityLedger

        ledger = CapacityLedger.from_network(tight_star_network)
        result = route_groups(
            tight_star_network,
            [GroupRequest("all", tuple(tight_star_network.user_ids))],
            rng=0,
            ledger=ledger,
        )
        assert not result.solutions["all"].feasible
        assert ledger.as_dict() == {"hub": 2}
        # The rolled-back attempt held the hub's qubits only inside the
        # solver's transaction; the high-water mark must not keep them.
        assert ledger.peak_usage() == {"hub": 0}
