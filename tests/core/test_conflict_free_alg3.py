"""Tests for Algorithm 3 — the conflict-free heuristic."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_optimal
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.optimal import solve_optimal
from repro.core.tree import validate_solution
from repro.network import NetworkBuilder
from repro.topology import TopologyConfig, waxman_network


class TestBasics:
    def test_matches_alg2_when_capacity_abundant(self, medium_waxman):
        roomy = medium_waxman.with_switch_qubits(
            2 * len(medium_waxman.users)
        )
        optimal = solve_optimal(roomy)
        heuristic = solve_conflict_free(roomy)
        assert heuristic.feasible
        assert math.isclose(
            heuristic.log_rate, optimal.log_rate, rel_tol=1e-9
        )

    def test_respects_capacity(self, medium_waxman):
        solution = solve_conflict_free(medium_waxman)
        report = validate_solution(medium_waxman, solution)
        assert report.ok, str(report)

    def test_star_with_q4_uses_both_slots(self, star_network):
        solution = solve_conflict_free(star_network)
        assert solution.feasible
        assert solution.switch_usage().get("hub", 0) <= 4

    def test_tight_star_infeasible(self, tight_star_network):
        """Fig. 4b: a 2-qubit hub cannot entangle three users alone."""
        solution = solve_conflict_free(tight_star_network)
        assert not solution.feasible
        assert solution.rate == 0.0

    def test_reconnection_phase_finds_detour(self, params_q09):
        """When the greedy base channels overload a hub, Phase 2 must
        re-route the displaced pair through a spare switch."""
        builder = NetworkBuilder(params_q09)
        builder.user("a", (0, 0)).user("b", (2000, 0)).user("c", (1000, 1500))
        builder.switch("hub", (1000, 100), qubits=2)  # one channel only
        builder.switch("spare", (1000, -400), qubits=2)
        builder.fiber("a", "hub", 1000).fiber("hub", "b", 1000)
        builder.fiber("c", "hub", 1500)
        builder.fiber("a", "spare", 1100).fiber("spare", "b", 1100)
        builder.fiber("c", "spare", 2000)
        net = builder.build()
        solution = solve_conflict_free(net)
        assert solution.feasible
        report = validate_solution(net, solution)
        assert report.ok, str(report)
        usage = solution.switch_usage()
        assert usage.get("hub", 0) <= 2
        assert usage.get("spare", 0) >= 2  # the detour was used

    def test_explicit_base_channels(self, medium_waxman):
        base = solve_optimal(medium_waxman)
        solution = solve_conflict_free(
            medium_waxman, base_channels=base.channels
        )
        assert solution.feasible

    def test_unknown_retention_rejected(self, star_network):
        with pytest.raises(ValueError):
            solve_conflict_free(star_network, retention="bogus")

    def test_random_retention_is_seedable(self, medium_waxman):
        a = solve_conflict_free(medium_waxman, retention="random", rng=5)
        b = solve_conflict_free(medium_waxman, retention="random", rng=5)
        assert [c.path for c in a.channels] == [c.path for c in b.channels]

    def test_method_name(self, star_network):
        assert solve_conflict_free(star_network).method == "conflict_free"

    def test_shared_residual_mutated(self, star_network):
        residual = CapacityLedger.from_network(star_network)
        solve_conflict_free(star_network, residual=residual)
        assert residual["hub"] == 0  # both slots consumed


class TestQuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_capacity_feasible_and_valid_on_random_networks(self, seed):
        config = TopologyConfig(
            n_switches=12, n_users=5, avg_degree=4.0, qubits_per_switch=2
        )
        net = waxman_network(config, rng=seed)
        solution = solve_conflict_free(net)
        report = validate_solution(net, solution)
        assert report.ok, f"seed {seed}: {report}"

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_never_beats_capacity_free_optimum(self, seed):
        """Capacity can only hurt: Alg 3 <= Alg 2's relaxed optimum."""
        config = TopologyConfig(
            n_switches=8, n_users=4, avg_degree=3.0, qubits_per_switch=2
        )
        net = waxman_network(config, rng=seed)
        heuristic = solve_conflict_free(net)
        relaxed = solve_optimal(net)
        if heuristic.feasible and relaxed.feasible:
            assert heuristic.log_rate <= relaxed.log_rate + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_whenever_brute_force_is(self, seed):
        """On tiny instances the heuristic shouldn't miss easy trees.

        (Not guaranteed in general — the problem is NP-complete — but on
        these specific small instances greedy does find a tree whenever
        one exists; this pins the behaviour against regressions.)
        """
        config = TopologyConfig(
            n_switches=5, n_users=3, avg_degree=3.0, qubits_per_switch=2
        )
        net = waxman_network(config, rng=seed)
        brute = brute_force_optimal(net, enforce_capacity=True)
        heuristic = solve_conflict_free(net)
        if brute.feasible:
            assert heuristic.feasible, f"seed {seed}"
            assert heuristic.log_rate <= brute.log_rate + 1e-9
