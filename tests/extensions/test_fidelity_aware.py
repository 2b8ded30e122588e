"""Tests for fidelity-aware routing."""

from __future__ import annotations

import math

import pytest

from repro.core.channel import find_best_channel
from repro.core.ledger import CapacityLedger
from repro.core.tree import validate_solution
from repro.extensions.fidelity_aware import (
    FidelityModel,
    channel_fidelity,
    find_best_channel_with_fidelity,
    pareto_channels,
    solve_fidelity_prim,
)
from repro.network import NetworkBuilder, NetworkParams
from repro.quantum.fidelity import chain_werner_fidelity


class TestFidelityModel:
    def test_link_fidelity_decays(self):
        model = FidelityModel()
        assert model.link_fidelity(10) > model.link_fidelity(8000)

    def test_extend_matches_werner_rule(self):
        model = FidelityModel()
        assert math.isclose(
            model.extend(0.9, 0.8),
            0.9 * 0.8 + 0.1 * 0.2 / 3,
        )


class TestChannelFidelity:
    def test_single_link(self, direct_pair):
        model = FidelityModel()
        fidelity = channel_fidelity(direct_pair, ["alice", "bob"], model)
        assert math.isclose(fidelity, model.link_fidelity(500.0))

    def test_chain_matches_reference(self, line_network):
        model = FidelityModel()
        fidelity = channel_fidelity(
            line_network, ["alice", "s0", "s1", "bob"], model
        )
        link = model.link_fidelity(1000.0)
        assert math.isclose(fidelity, chain_werner_fidelity([link] * 3))

    def test_missing_fiber_rejected(self, line_network):
        with pytest.raises(ValueError):
            channel_fidelity(line_network, ["alice", "bob"])


@pytest.fixture
def tradeoff_network():
    """Two routes with a genuine rate/fidelity trade-off.

    Short route: 2 hops of 100 km (high rate) but a steep decoherence
    model makes per-swap losses matter; long direct fiber has lower rate
    but only one link (no swap), hence higher fidelity under a model
    where swaps dominate fidelity loss.
    """
    net = (
        NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
        .user("a", (0, 0))
        .switch("m", (100, 0), qubits=2)
        .user("b", (200, 0))
        .fiber("a", "m", 100)
        .fiber("m", "b", 100)
        .fiber("a", "b", 2000)
        .build()
    )
    return net


class TestParetoSearch:
    def test_frontier_contains_both_routes(self, tradeoff_network):
        model = FidelityModel(base_fidelity=0.9, decay_per_km=1e-6)
        frontier = pareto_channels(tradeoff_network, "a", "b", model)
        paths = {pc.channel.path for pc in frontier}
        # Switched route: higher rate, lower fidelity (one swap).
        # Direct route: lower rate, higher fidelity.
        assert ("a", "m", "b") in paths
        assert ("a", "b") in paths

    def test_frontier_is_nondominated(self, tradeoff_network):
        model = FidelityModel(base_fidelity=0.9, decay_per_km=1e-6)
        frontier = pareto_channels(tradeoff_network, "a", "b", model)
        for first in frontier:
            for second in frontier:
                if first is second:
                    continue
                dominates = (
                    first.channel.log_rate >= second.channel.log_rate
                    and first.fidelity >= second.fidelity
                    and (
                        first.channel.log_rate > second.channel.log_rate
                        or first.fidelity > second.fidelity
                    )
                )
                assert not dominates

    def test_best_rate_matches_algorithm1(self, medium_waxman):
        users = medium_waxman.user_ids
        frontier = pareto_channels(medium_waxman, users[0], users[1])
        alg1 = find_best_channel(medium_waxman, users[0], users[1])
        assert frontier  # connected network
        assert math.isclose(
            frontier[0].channel.log_rate, alg1.log_rate, rel_tol=1e-9
        )

    def test_fidelities_match_reference_computation(self, tradeoff_network):
        model = FidelityModel(base_fidelity=0.9, decay_per_km=1e-6)
        for pc in pareto_channels(tradeoff_network, "a", "b", model):
            expected = channel_fidelity(
                tradeoff_network, pc.channel.path, model
            )
            assert math.isclose(pc.fidelity, expected, rel_tol=1e-9)

    def test_residual_capacity_respected(self, tradeoff_network):
        frontier = pareto_channels(
            tradeoff_network, "a", "b", residual=CapacityLedger({"m": 0})
        )
        paths = {pc.channel.path for pc in frontier}
        assert paths == {("a", "b")}

    def test_same_user_rejected(self, tradeoff_network):
        with pytest.raises(ValueError):
            pareto_channels(tradeoff_network, "a", "a")


class TestFidelityConstrainedChannel:
    def test_threshold_selects_high_fidelity_route(self, tradeoff_network):
        model = FidelityModel(base_fidelity=0.9, decay_per_km=1e-6)
        unconstrained = find_best_channel_with_fidelity(
            tradeoff_network, "a", "b", min_fidelity=0.0, model=model
        )
        assert unconstrained.channel.path == ("a", "m", "b")
        direct_fidelity = channel_fidelity(tradeoff_network, ["a", "b"], model)
        switched_fidelity = channel_fidelity(
            tradeoff_network, ["a", "m", "b"], model
        )
        assert direct_fidelity > switched_fidelity
        threshold = (direct_fidelity + switched_fidelity) / 2
        constrained = find_best_channel_with_fidelity(
            tradeoff_network, "a", "b", min_fidelity=threshold, model=model
        )
        assert constrained.channel.path == ("a", "b")

    def test_unreachable_threshold_returns_none(self, tradeoff_network):
        assert (
            find_best_channel_with_fidelity(
                tradeoff_network, "a", "b", min_fidelity=0.9999
            )
            is None
        )


class TestFidelityPrim:
    def test_unconstrained_matches_prim_rate(self, medium_waxman):
        from repro.core.prim_based import solve_prim

        fidelity_solution = solve_fidelity_prim(
            medium_waxman, min_fidelity=0.0, start=medium_waxman.user_ids[0]
        )
        plain = solve_prim(medium_waxman, start=medium_waxman.user_ids[0])
        assert fidelity_solution.feasible
        assert math.isclose(
            fidelity_solution.log_rate, plain.log_rate, rel_tol=1e-9
        )

    def test_solution_validates(self, medium_waxman):
        solution = solve_fidelity_prim(medium_waxman, min_fidelity=0.5, rng=0)
        if solution.feasible:
            report = validate_solution(medium_waxman, solution)
            assert report.ok, str(report)

    def test_every_channel_meets_threshold(self, medium_waxman):
        model = FidelityModel()
        threshold = 0.9
        solution = solve_fidelity_prim(
            medium_waxman, min_fidelity=threshold, model=model, rng=0
        )
        if solution.feasible:
            for channel in solution.channels:
                fidelity = channel_fidelity(
                    medium_waxman, channel.path, model
                )
                assert fidelity >= threshold - 1e-9

    def test_impossible_threshold_infeasible(self, medium_waxman):
        solution = solve_fidelity_prim(
            medium_waxman, min_fidelity=0.99999, rng=0
        )
        assert not solution.feasible

    def test_tighter_threshold_never_higher_rate(self, medium_waxman):
        loose = solve_fidelity_prim(medium_waxman, min_fidelity=0.0, rng=0)
        tight = solve_fidelity_prim(medium_waxman, min_fidelity=0.95, rng=0)
        if tight.feasible:
            assert tight.log_rate <= loose.log_rate + 1e-9

    def test_unknown_start_rejected(self, medium_waxman):
        with pytest.raises(ValueError):
            solve_fidelity_prim(medium_waxman, start="ghost")
