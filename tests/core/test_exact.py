"""Tests for the branch-and-bound exact solver."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_optimal
from repro.core.conflict_free import solve_conflict_free
from repro.core.optimal import solve_optimal
from repro.core.exact import solve_exact
from repro.core.prim_based import solve_prim
from repro.core.tree import validate_solution
from repro.topology import TopologyConfig, waxman_network


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_equal_optimum_small_instances(self, seed):
        config = TopologyConfig(
            n_switches=6, n_users=4, avg_degree=3.0, qubits_per_switch=2
        )
        net = waxman_network(config, rng=seed)
        exact = solve_exact(net)
        brute = brute_force_optimal(net)
        assert exact.feasible == brute.feasible, f"seed {seed}"
        if exact.feasible:
            assert math.isclose(
                exact.log_rate, brute.log_rate, rel_tol=1e-9
            ), f"seed {seed}"

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        qubits=st.sampled_from([2, 4, 6]),
    )
    def test_property_matches_brute_force(self, seed, qubits):
        config = TopologyConfig(
            n_switches=5,
            n_users=3,
            avg_degree=3.0,
            qubits_per_switch=qubits,
        )
        net = waxman_network(config, rng=seed)
        exact = solve_exact(net)
        brute = brute_force_optimal(net)
        assert exact.feasible == brute.feasible
        if exact.feasible:
            assert math.isclose(exact.log_rate, brute.log_rate, rel_tol=1e-9)


class TestProperties:
    def test_solution_validates(self, small_waxman):
        solution = solve_exact(small_waxman)
        if solution.feasible:
            report = validate_solution(small_waxman, solution)
            assert report.ok, str(report)

    def test_dominates_heuristics(self, small_waxman):
        exact = solve_exact(small_waxman)
        if not exact.feasible:
            return
        for heuristic in (
            solve_conflict_free(small_waxman),
            solve_prim(small_waxman, rng=0),
        ):
            if heuristic.feasible:
                assert exact.log_rate >= heuristic.log_rate - 1e-9

    def test_infeasible_star(self, tight_star_network):
        assert not solve_exact(tight_star_network).feasible

    def test_feasible_star(self, star_network):
        solution = solve_exact(star_network)
        assert solution.feasible
        assert solution.n_channels == 2

    def test_user_limit(self, params_q09):
        from repro.network import NetworkBuilder

        builder = NetworkBuilder(params_q09)
        names = [f"u{i}" for i in range(9)]
        for i, name in enumerate(names):
            builder.user(name, (10.0 * i, 0))
        for a, b in zip(names, names[1:]):
            builder.fiber(a, b, 10)
        with pytest.raises(ValueError):
            solve_exact(builder.build())

    def test_capacity_interplay_beats_greedy_sometimes(self):
        """On tight instances the exact optimum must be at least the
        best heuristic, and occasionally strictly better — check the
        aggregate over seeds rather than any single instance."""
        config = TopologyConfig(
            n_switches=8, n_users=4, avg_degree=3.5, qubits_per_switch=2
        )
        strictly_better = 0
        compared = 0
        for seed in range(10):
            net = waxman_network(config, rng=seed)
            exact = solve_exact(net)
            heuristic = solve_conflict_free(net)
            if exact.feasible and heuristic.feasible:
                compared += 1
                assert exact.log_rate >= heuristic.log_rate - 1e-9
                if exact.log_rate > heuristic.log_rate + 1e-9:
                    strictly_better += 1
            elif exact.feasible and not heuristic.feasible:
                strictly_better += 1
        assert compared > 0
        # Not asserting strictly_better > 0: greedy may be optimal on
        # all sampled seeds; the domination inequality is the invariant.


class TestOptimalityGap:
    """Log-rate gaps to Algorithm 2's capacity-relaxed optimum."""

    def test_zero_gap_under_sufficient_capacity(self, medium_waxman):
        roomy = medium_waxman.with_switch_qubits(
            2 * len(medium_waxman.users)
        )
        solution = solve_conflict_free(roomy)
        relaxed = solve_optimal(roomy)
        assert abs(solution.log_rate - relaxed.log_rate) < 1e-9

    def test_gap_nonpositive(self, medium_waxman):
        solution = solve_prim(medium_waxman, rng=0)
        relaxed = solve_optimal(medium_waxman)
        assert solution.log_rate - relaxed.log_rate <= 1e-12

    def test_infeasible_gap(self, tight_star_network):
        from repro.core.problem import infeasible_solution

        solution = infeasible_solution(tight_star_network.user_ids, "x")
        relaxed = solve_optimal(tight_star_network)
        assert solution.log_rate - relaxed.log_rate == -math.inf
