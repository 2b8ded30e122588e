"""Tests for the random-tree ablation baseline."""

from __future__ import annotations

import pytest

from repro.baselines.random_tree import solve_random_tree
from repro.core.optimal import solve_optimal
from repro.core.tree import validate_solution


class TestRandomTree:
    def test_spans_users_when_feasible(self, medium_waxman):
        solution = solve_random_tree(medium_waxman, rng=0)
        if solution.feasible:
            report = validate_solution(medium_waxman, solution)
            assert report.ok, str(report)

    def test_deterministic_given_seed(self, medium_waxman):
        a = solve_random_tree(medium_waxman, rng=3)
        b = solve_random_tree(medium_waxman, rng=3)
        assert a.feasible == b.feasible
        assert [c.path for c in a.channels] == [c.path for c in b.channels]

    def test_seeds_vary_structure(self, medium_waxman):
        structures = set()
        for seed in range(6):
            solution = solve_random_tree(medium_waxman, rng=seed)
            structures.add(tuple(c.endpoint_key for c in solution.channels))
        assert len(structures) > 1

    def test_never_beats_optimal(self, medium_waxman):
        optimal = solve_optimal(medium_waxman)
        for seed in range(5):
            solution = solve_random_tree(medium_waxman, rng=seed)
            if solution.feasible:
                assert solution.log_rate <= optimal.log_rate + 1e-9

    def test_usually_worse_than_optimal(self, medium_waxman):
        """The point of the ablation: pair choice matters."""
        optimal = solve_optimal(medium_waxman)
        worse = 0
        feasible = 0
        for seed in range(10):
            solution = solve_random_tree(medium_waxman, rng=seed)
            if solution.feasible:
                feasible += 1
                if solution.log_rate < optimal.log_rate - 1e-9:
                    worse += 1
        assert feasible == 0 or worse >= feasible // 2

    def test_tight_star_infeasible(self, tight_star_network):
        assert not solve_random_tree(tight_star_network, rng=0).feasible

    def test_method_name(self, star_network):
        assert solve_random_tree(star_network, rng=0).method == "random_tree"
