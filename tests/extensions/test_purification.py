"""Tests for purification-integrated routing."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import validate_solution
from repro.extensions.fidelity_aware import (
    FidelityModel,
    channel_fidelity,
    pareto_channels,
)
from repro.extensions.purification import (
    PurificationOption,
    best_purified_option,
    purification_ladder,
    purification_success,
    purify_once,
    solve_purified_prim,
)
from repro.topology import TopologyConfig, waxman_network


class TestClosedForms:
    def test_perfect_pairs_stay_perfect(self):
        fidelity, p = purify_once(1.0)
        assert math.isclose(fidelity, 1.0)
        assert math.isclose(p, 1.0)

    def test_quarter_is_fixed_point(self):
        fidelity, _ = purify_once(0.25)
        assert math.isclose(fidelity, 0.25, abs_tol=1e-12)

    def test_improves_above_half(self):
        for f in (0.55, 0.7, 0.85, 0.95):
            new_fidelity, p = purify_once(f)
            assert new_fidelity > f
            assert 0.0 < p <= 1.0

    def test_degrades_below_half(self):
        new_fidelity, _ = purify_once(0.4)
        assert new_fidelity < 0.4

    def test_success_probability_bounds(self):
        for f in (0.25, 0.5, 0.75, 1.0):
            assert 0.0 < purification_success(f) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(f=st.floats(0.5, 1.0))
    def test_property_monotone_improvement_region(self, f):
        new_fidelity, p = purify_once(f)
        assert new_fidelity >= f - 1e-12
        assert 0.0 < p <= 1.0


class TestLadder:
    def _pareto(self, network):
        users = network.user_ids
        frontier = pareto_channels(network, users[0], users[1])
        assert frontier
        return frontier[0]

    def test_round_zero_is_raw(self, medium_waxman):
        pareto = self._pareto(medium_waxman)
        ladder = purification_ladder(pareto, max_rounds=2)
        assert ladder[0].rounds == 0
        assert math.isclose(ladder[0].log_rate, pareto.channel.log_rate)
        assert math.isclose(ladder[0].fidelity, pareto.fidelity)

    def test_rates_fall_fidelity_rises(self, medium_waxman):
        pareto = self._pareto(medium_waxman)
        ladder = purification_ladder(pareto, max_rounds=3)
        for lower, higher in zip(ladder, ladder[1:]):
            assert higher.log_rate < lower.log_rate
            assert higher.fidelity >= lower.fidelity  # F > 0.5 here

    def test_qubit_multiplier(self, medium_waxman):
        pareto = self._pareto(medium_waxman)
        ladder = purification_ladder(pareto, max_rounds=3)
        assert [o.qubit_multiplier for o in ladder] == [1, 2, 4, 8]

    def test_rate_recursion(self, medium_waxman):
        """P_k = P_{k-1}^2 * p_succ(F_{k-1})."""
        pareto = self._pareto(medium_waxman)
        ladder = purification_ladder(pareto, max_rounds=2)
        for prev, this in zip(ladder, ladder[1:]):
            expected = 2 * prev.log_rate + math.log(
                purification_success(prev.fidelity)
            )
            assert math.isclose(this.log_rate, expected, rel_tol=1e-12)

    def test_negative_rounds_rejected(self, medium_waxman):
        pareto = self._pareto(medium_waxman)
        with pytest.raises(ValueError):
            purification_ladder(pareto, max_rounds=-1)


class TestBestOption:
    def test_zero_floor_is_raw_best_channel(self, medium_waxman):
        from repro.core.channel import find_best_channel

        users = medium_waxman.user_ids
        option = best_purified_option(
            medium_waxman, users[0], users[1], min_fidelity=0.0
        )
        raw = find_best_channel(medium_waxman, users[0], users[1])
        assert option.rounds == 0
        assert math.isclose(option.log_rate, raw.log_rate, rel_tol=1e-9)

    def test_high_floor_forces_purification(self, medium_waxman):
        """Pick a floor above every raw channel's fidelity but below the
        1-round purified fidelity: rounds >= 1 becomes mandatory."""
        users = medium_waxman.user_ids
        model = FidelityModel(base_fidelity=0.9, decay_per_km=1e-5)
        frontier = pareto_channels(medium_waxman, users[0], users[1], model)
        raw_best = max(pc.fidelity for pc in frontier)
        target = raw_best + 0.5 * (purify_once(raw_best)[0] - raw_best)
        option = best_purified_option(
            medium_waxman,
            users[0],
            users[1],
            min_fidelity=target,
            model=model,
        )
        if option is not None:
            assert option.rounds >= 1
            assert option.fidelity >= target

    def test_impossible_floor_returns_none(self, medium_waxman):
        users = medium_waxman.user_ids
        assert (
            best_purified_option(
                medium_waxman, users[0], users[1], min_fidelity=0.99999,
                max_rounds=1,
            )
            is None
        )

    def test_capacity_blocks_purification(self, line_network):
        """2-round purification needs 8 qubits per switch; the line's
        switches have 4, so rounds > 1 must be rejected."""
        option = best_purified_option(
            line_network,
            "alice",
            "bob",
            min_fidelity=0.0,
            max_rounds=2,
        )
        assert option.rounds == 0  # raw is best anyway
        # Now force purification by fidelity floor beyond raw.
        model = FidelityModel(base_fidelity=0.93, decay_per_km=1e-4)
        raw_fidelity = channel_fidelity(
            line_network, ["alice", "s0", "s1", "bob"], model
        )
        one_round = purify_once(raw_fidelity)[0]
        floor = (raw_fidelity + one_round) / 2
        option = best_purified_option(
            line_network,
            "alice",
            "bob",
            min_fidelity=floor,
            model=model,
            max_rounds=2,
        )
        if option is not None:
            # 1 round needs 4 qubits/switch: exactly available.
            assert option.rounds == 1


class TestPurifiedPrim:
    def test_basic_tree(self, medium_waxman):
        roomy = medium_waxman.with_switch_qubits(16)
        solution, rounds = solve_purified_prim(
            roomy, min_fidelity=0.9, rng=0
        )
        if solution.feasible:
            # Purified channels carry their post-purification rate, not
            # the Eq. (1) one; every other invariant must hold.
            issues = validate_solution(roomy, solution).issues
            assert all(issue.startswith("[rate]") for issue in issues)
            assert set(rounds) == {c.path for c in solution.channels}

    def test_zero_floor_matches_prim(self, medium_waxman):
        from repro.core.prim_based import solve_prim

        start = medium_waxman.user_ids[0]
        purified, rounds = solve_purified_prim(
            medium_waxman, min_fidelity=0.0, start=start
        )
        plain = solve_prim(medium_waxman, start=start)
        assert math.isclose(
            purified.log_rate, plain.log_rate, rel_tol=1e-9
        )
        assert all(r == 0 for r in rounds.values())

    def test_impossible_floor_infeasible(self, medium_waxman):
        solution, rounds = solve_purified_prim(
            medium_waxman, min_fidelity=0.999999, max_rounds=1, rng=0
        )
        assert not solution.feasible
        assert rounds == {}

    def test_purification_unlocks_infeasible_floors(self):
        """A floor unreachable raw but reachable with purification: the
        purified solver succeeds where the plain fidelity solver fails."""
        from repro.extensions.fidelity_aware import solve_fidelity_prim

        config = TopologyConfig(
            n_switches=12, n_users=3, avg_degree=5.0, qubits_per_switch=16
        )
        network = waxman_network(config, rng=5)
        model = FidelityModel(base_fidelity=0.92, decay_per_km=5e-5)
        floor = 0.95
        plain = solve_fidelity_prim(
            network, min_fidelity=floor, model=model, rng=0
        )
        purified, rounds = solve_purified_prim(
            network, min_fidelity=floor, model=model, max_rounds=3, rng=0
        )
        if purified.feasible:
            assert any(r >= 1 for r in rounds.values())
            # And plain either failed or needed much lower rate channels.
            if plain.feasible:
                assert purified.rate > 0
        else:
            assert not plain.feasible
