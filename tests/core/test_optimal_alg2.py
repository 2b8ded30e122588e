"""Tests for Algorithm 2 — optimal under the sufficient condition."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_optimal
from repro.core.optimal import solve_optimal, sufficient_capacity
from repro.core.tree import validate_solution
from repro.network import NetworkBuilder
from repro.topology import TopologyConfig, waxman_network


class TestSufficientCapacity:
    def test_condition_checked_per_switch(self, star_network):
        # star hub has 4 qubits; 3 users → needs 6.
        assert not sufficient_capacity(star_network, 3)
        assert sufficient_capacity(star_network, 2)

    def test_upgraded_network_satisfies(self, star_network):
        upgraded = star_network.with_switch_qubits(2 * 3)
        assert sufficient_capacity(upgraded, 3)


class TestBasics:
    def test_star_solution(self, star_network):
        solution = solve_optimal(star_network)
        assert solution.feasible
        assert solution.n_channels == 2
        assert validate_solution(
            star_network, solution, enforce_capacity=False
        ).ok
        # Each channel is user-hub-user: rate (pq p) with p = e^{-0.1}.
        p = math.exp(-0.1)
        assert math.isclose(solution.rate, (p * p * 0.9) ** 2, rel_tol=1e-9)

    def test_line_two_users(self, line_network):
        solution = solve_optimal(line_network)
        assert solution.n_channels == 1
        assert solution.channels[0].path == ("alice", "s0", "s1", "bob")

    def test_ignores_capacity_by_design(self, tight_star_network):
        """Algorithm 2 is the Q >= 2|U| special case: the 2-qubit hub
        does not stop it (its tree would violate the real budget)."""
        solution = solve_optimal(tight_star_network)
        assert solution.feasible
        usage = solution.switch_usage()
        assert usage["hub"] == 4  # exceeds the hub's 2 qubits

    def test_infeasible_on_disconnected_users(self, params_q09):
        net = (
            NetworkBuilder(params_q09)
            .user("a", (0, 0))
            .user("b", (10, 0))
            .user("c", (20, 0))
            .fiber("a", "b", 10)
            .build()
        )
        solution = solve_optimal(net)
        assert not solution.feasible
        assert solution.rate == 0.0

    def test_subset_of_users(self, star_network):
        solution = solve_optimal(star_network, users=["alice", "bob"])
        assert solution.users == frozenset(("alice", "bob"))
        assert solution.n_channels == 1

    def test_solution_validates(self, medium_waxman):
        solution = solve_optimal(medium_waxman)
        report = validate_solution(
            medium_waxman, solution, enforce_capacity=False
        )
        assert report.ok, str(report)

    def test_method_name(self, star_network):
        assert solve_optimal(star_network).method == "optimal"

    def test_deterministic(self, medium_waxman):
        a = solve_optimal(medium_waxman)
        b = solve_optimal(medium_waxman)
        assert [c.path for c in a.channels] == [c.path for c in b.channels]


class TestOptimality:
    """Theorem 3: under Q >= 2|U| the output is optimal."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_with_abundant_capacity(self, seed):
        config = TopologyConfig(
            n_switches=6,
            n_users=4,
            avg_degree=3.0,
            qubits_per_switch=2 * 4,  # sufficient condition
        )
        net = waxman_network(config, rng=seed)
        ours = solve_optimal(net)
        brute = brute_force_optimal(net, enforce_capacity=False)
        assert ours.feasible == brute.feasible
        if ours.feasible:
            assert math.isclose(
                ours.log_rate, brute.log_rate, rel_tol=1e-9
            ), f"seed {seed}: {ours.rate} vs optimal {brute.rate}"

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_never_below_brute_force(self, seed):
        config = TopologyConfig(
            n_switches=5, n_users=3, avg_degree=3.0, qubits_per_switch=6
        )
        net = waxman_network(config, rng=seed)
        ours = solve_optimal(net)
        brute = brute_force_optimal(net, enforce_capacity=False)
        if brute.feasible:
            assert ours.feasible
            assert ours.log_rate >= brute.log_rate - 1e-9

    def test_tree_has_exactly_u_minus_1_channels(self, medium_waxman):
        solution = solve_optimal(medium_waxman)
        assert solution.n_channels == len(medium_waxman.users) - 1

    def test_greedy_picks_best_channel_first(self, medium_waxman):
        from repro.core.channel import all_pairs_best_channels

        solution = solve_optimal(medium_waxman)
        pairwise = all_pairs_best_channels(
            medium_waxman, medium_waxman.user_ids
        )
        best_overall = max(c.log_rate for c in pairwise.values())
        best_selected = max(c.log_rate for c in solution.channels)
        assert math.isclose(best_selected, best_overall, rel_tol=1e-12)
