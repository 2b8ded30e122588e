"""Tests for incremental failure recovery."""

from __future__ import annotations

import math

import pytest

from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.optimal import solve_optimal
from repro.core.prim_based import solve_prim
from repro.core.tree import validate_solution
from repro.extensions.recovery import (
    apply_failures,
    region_of,
    repair_solution,
)
from repro.network import NetworkBuilder
from repro.topology.extras import grid_network


class TestApplyFailures:
    def test_fiber_removal(self, star_network):
        damaged = apply_failures(star_network, failed_fibers=[("alice", "hub")])
        assert not damaged.has_fiber("alice", "hub")
        assert star_network.has_fiber("alice", "hub")  # original untouched

    def test_unknown_fiber_ignored(self, star_network):
        damaged = apply_failures(star_network, failed_fibers=[("alice", "bob")])
        assert damaged.n_fibers == star_network.n_fibers

    def test_switch_goes_dark(self, star_network):
        damaged = apply_failures(star_network, failed_switches=["hub"])
        assert damaged.degree("hub") == 0
        assert "hub" in damaged  # node remains, just dark

    def test_non_switch_rejected(self, star_network):
        with pytest.raises(ValueError):
            apply_failures(star_network, failed_switches=["alice"])


class TestRepair:
    def test_no_failures_is_identity(self, star_network):
        solution = solve_conflict_free(star_network)
        report = repair_solution(star_network, solution)
        assert report.repaired
        assert report.solution is solution
        assert report.broken_channels == ()

    def test_unrelated_failure_keeps_everything(self, two_path_network):
        solution = solve_conflict_free(two_path_network)
        # The tree uses the switched path; cutting the direct fiber is
        # harmless.
        assert solution.channels[0].path == ("alice", "mid", "bob")
        report = repair_solution(
            two_path_network, solution, failed_fibers=[("alice", "bob")]
        )
        assert report.repaired
        assert report.broken_channels == ()
        assert math.isclose(report.rate_retention, 1.0)

    def test_reroutes_around_cut_fiber(self, two_path_network):
        solution = solve_conflict_free(two_path_network)
        report = repair_solution(
            two_path_network, solution, failed_fibers=[("alice", "mid")]
        )
        assert report.repaired
        assert len(report.broken_channels) == 1
        assert len(report.new_channels) == 1
        assert report.new_channels[0].path == ("alice", "bob")
        # The detour is worse than the original switched channel.
        assert report.rate_retention < 1.0

    def test_dead_switch_fatal_without_alternatives(self, star_network):
        solution = solve_conflict_free(star_network)
        report = repair_solution(
            star_network, solution, failed_switches=["hub"]
        )
        assert not report.repaired
        assert report.solution.rate == 0.0
        assert len(report.broken_channels) == 2

    def test_repaired_solution_validates_on_damaged_network(self, medium_waxman):
        solution = solve_prim(medium_waxman, rng=0)
        # Cut the first fiber of the first channel.
        u, v = solution.channels[0].path[0], solution.channels[0].path[1]
        report = repair_solution(
            medium_waxman, solution, failed_fibers=[(u, v)]
        )
        if report.repaired:
            damaged = apply_failures(medium_waxman, failed_fibers=[(u, v)])
            result = validate_solution(damaged, report.solution)
            assert result.ok, str(result)
            assert report.solution.method.endswith("+repair")

    def test_kept_channels_keep_their_qubits(self, params_q09):
        """Repair must not steal qubits reserved by surviving channels."""
        builder = NetworkBuilder(params_q09)
        builder.user("a", (0, 0)).user("b", (2000, 0)).user("c", (1000, 1500))
        builder.switch("hub", (1000, 0), qubits=2)  # one channel only
        builder.switch("alt", (1000, -1500), qubits=2)
        builder.fiber("a", "hub", 1000).fiber("hub", "b", 1000)
        builder.fiber("a", "alt", 1800).fiber("alt", "b", 1800)
        builder.fiber("c", "hub", 1500).fiber("c", "alt", 3000)
        # c also has a direct line to a so a tree exists.
        builder.fiber("c", "a", 1803)
        net = builder.build()
        solution = solve_conflict_free(net)
        assert solution.feasible
        # Fail a fiber on whichever channel uses 'alt' or the c-a direct,
        # then verify combined usage on the damaged net stays legal.
        victim = solution.channels[-1]
        u, v = victim.path[0], victim.path[1]
        report = repair_solution(net, solution, failed_fibers=[(u, v)])
        if report.repaired:
            damaged = apply_failures(net, failed_fibers=[(u, v)])
            result = validate_solution(damaged, report.solution)
            assert result.ok, str(result)

    def test_overbooked_kept_channels_block_without_raising(self, params_q09):
        """Kept channels of a capacity-blind tree may overbook a switch.

        ``optimal`` routes two channels through the 2-qubit hub.  Repair
        charges the kept channels flooring the hub at 0 free qubits: it
        must not raise, and the hub stays blocked, so d reconnects over
        the longer s2 corridor rather than the shorter one via the hub.
        The repaired tree stays held on the ledger, capped at the hub.
        """
        builder = NetworkBuilder(params_q09)
        builder.user("a", (0, 0)).user("b", (1000, 0))
        builder.user("c", (500, 800)).user("d", (500, -2000))
        builder.switch("hub", (500, 300), qubits=2)
        builder.switch("s1", (500, 500), qubits=2)
        builder.switch("s2", (0, -1000), qubits=2)
        builder.fiber("a", "hub", 500).fiber("b", "hub", 500)
        builder.fiber("c", "hub", 500)
        builder.fiber("c", "s1", 300).fiber("s1", "d", 300)
        builder.fiber("a", "s2", 2000).fiber("s2", "d", 2000)
        builder.fiber("d", "hub", 3000)
        net = builder.build()
        solution = solve_optimal(net)
        assert solution.switch_usage()["hub"] == 4  # overbooked
        ledger = CapacityLedger.from_network(net)
        report = repair_solution(
            net, solution, failed_fibers=[("s1", "d")], residual=ledger
        )
        assert report.repaired
        assert [c.path for c in report.solution.channels] == [
            ("a", "hub", "b"),
            ("a", "hub", "c"),
            ("a", "s2", "d"),
        ]
        assert [c.path for c in report.broken_channels] == [("c", "s1", "d")]
        assert ledger.as_dict() == {"hub": 0, "s1": 2, "s2": 0}

    def test_infeasible_repair_leaves_the_ledger_unchanged(
        self, star_network
    ):
        solution = solve_conflict_free(star_network)
        ledger = CapacityLedger.from_network(star_network)
        ledger.reserve({"hub": 1})
        before = (ledger.as_dict(), ledger.peak_usage())
        report = repair_solution(
            star_network,
            solution,
            failed_fibers=[("carol", "hub")],
            residual=ledger,
        )
        assert not report.repaired
        assert report.kept_channels
        assert (ledger.as_dict(), ledger.peak_usage()) == before

    def test_infeasible_input_rejected(self, star_network):
        from repro.core.problem import infeasible_solution

        with pytest.raises(ValueError):
            repair_solution(
                star_network,
                infeasible_solution(star_network.user_ids, "x"),
                failed_fibers=[("alice", "hub")],
            )

    def test_repair_vs_fresh_resolve(self, medium_waxman):
        """Repair keeps surviving channels, so its rate can trail a
        from-scratch re-solve but must stay within it."""
        solution = solve_optimal(medium_waxman)
        channel = solution.channels[len(solution.channels) // 2]
        cut = (channel.path[0], channel.path[1])
        base = solve_conflict_free(medium_waxman)
        report = repair_solution(medium_waxman, base, failed_fibers=[cut])
        damaged = apply_failures(medium_waxman, failed_fibers=[cut])
        fresh = solve_optimal(damaged)
        if report.repaired and fresh.feasible:
            assert report.solution.log_rate <= fresh.log_rate + 1e-9


class TestRegionOf:
    def test_radius_zero_is_the_seeds(self):
        net = grid_network(3, 3)
        assert region_of(net, ["n1_1"], 0) == frozenset({"n1_1"})

    def test_radius_one_is_fiber_neighbors(self):
        net = grid_network(3, 3)
        region = region_of(net, ["n1_1"], 1)
        assert region == frozenset(
            {"n1_1", "n0_1", "n2_1", "n1_0", "n1_2"}
        )

    def test_missing_seed_kept_but_not_expanded(self):
        net = grid_network(3, 3)
        region = region_of(net, ["ghost"], 2)
        assert region == frozenset({"ghost"})

    def test_negative_radius_rejected(self):
        net = grid_network(3, 3)
        with pytest.raises(ValueError, match="radius"):
            region_of(net, ["n1_1"], -1)
