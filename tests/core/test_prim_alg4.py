"""Tests for Algorithm 4 — the Prim-based heuristic."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ledger import CapacityLedger
from repro.core.optimal import solve_optimal
from repro.core.prim_based import solve_prim
from repro.core.tree import validate_solution
from repro.network import NetworkBuilder
from repro.topology import TopologyConfig, waxman_network


class TestBasics:
    def test_spans_all_users(self, medium_waxman):
        solution = solve_prim(medium_waxman, rng=0)
        assert solution.feasible
        assert validate_solution(medium_waxman, solution).ok
        assert solution.n_channels == len(medium_waxman.users) - 1

    def test_respects_capacity(self, medium_waxman):
        solution = solve_prim(medium_waxman, rng=0)
        report = validate_solution(medium_waxman, solution)
        assert report.ok, str(report)

    def test_two_users_is_algorithm1(self, line_network):
        solution = solve_prim(line_network, rng=0)
        assert solution.n_channels == 1
        path = solution.channels[0].path
        assert path in (
            ("alice", "s0", "s1", "bob"),
            ("bob", "s1", "s0", "alice"),
        )

    def test_start_user_honoured(self, star_network):
        solution = solve_prim(star_network, start="carol")
        assert solution.feasible
        # First channel grows from carol.
        assert solution.channels[0].path[0] == "carol"

    def test_unknown_start_rejected(self, star_network):
        with pytest.raises(ValueError):
            solve_prim(star_network, start="nobody")

    def test_seeded_random_start_deterministic(self, medium_waxman):
        a = solve_prim(medium_waxman, rng=9)
        b = solve_prim(medium_waxman, rng=9)
        assert [c.path for c in a.channels] == [c.path for c in b.channels]

    def test_tight_star_infeasible(self, tight_star_network):
        solution = solve_prim(tight_star_network, rng=0)
        assert not solution.feasible
        assert solution.rate == 0.0

    def test_needs_no_precomputed_base(self, small_waxman):
        """Unlike Algorithm 3, runs directly on the network."""
        solution = solve_prim(small_waxman, rng=0)
        assert solution.feasible

    def test_method_name(self, star_network):
        assert solve_prim(star_network, rng=0).method == "prim"

    def test_shared_residual_mutated(self, star_network):
        residual = CapacityLedger.from_network(star_network)
        solve_prim(star_network, rng=0, residual=residual)
        assert residual["hub"] == 0

    def test_qubit_deduction_two_per_switch_per_channel(self, line_network):
        residual = CapacityLedger.from_network(line_network)
        solve_prim(line_network, rng=0, residual=residual)
        assert residual.as_dict() == {"s0": 2, "s1": 2}


class TestQuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_on_tight_random_networks(self, seed):
        config = TopologyConfig(
            n_switches=12, n_users=5, avg_degree=4.0, qubits_per_switch=2
        )
        net = waxman_network(config, rng=seed)
        solution = solve_prim(net, rng=seed)
        report = validate_solution(net, solution)
        assert report.ok, f"seed {seed}: {report}"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_never_beats_relaxed_optimum(self, seed):
        config = TopologyConfig(
            n_switches=8, n_users=4, avg_degree=3.0, qubits_per_switch=2
        )
        net = waxman_network(config, rng=seed)
        prim = solve_prim(net, rng=seed)
        relaxed = solve_optimal(net)
        if prim.feasible and relaxed.feasible:
            assert prim.log_rate <= relaxed.log_rate + 1e-9

    def test_matches_optimal_with_abundant_capacity_often(self):
        """Prim growth with max-rate channels is near-optimal when
        capacity never binds; verify it matches Alg-2 on several seeds
        (they can differ in principle, but not on these instances)."""
        config = TopologyConfig(
            n_switches=10, n_users=4, avg_degree=4.0, qubits_per_switch=8
        )
        matches = 0
        for seed in range(10):
            net = waxman_network(config, rng=seed)
            prim = solve_prim(net, rng=seed)
            optimal = solve_optimal(net)
            if math.isclose(prim.log_rate, optimal.log_rate, rel_tol=1e-9):
                matches += 1
        assert matches >= 7

    def test_greedy_first_step_is_global_best_from_start(self, small_waxman):
        from repro.core.channel import best_channels_from

        users = small_waxman.user_ids
        start = users[0]
        solution = solve_prim(small_waxman, start=start)
        first = solution.channels[0]
        candidates = best_channels_from(small_waxman, start, users[1:])
        best = max(c.log_rate for c in candidates.values())
        assert math.isclose(first.log_rate, best, rel_tol=1e-12)
