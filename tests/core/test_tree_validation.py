"""Tests for the solution validator."""

from __future__ import annotations

import math

import pytest

from repro.core.problem import Channel, MUERPSolution, infeasible_solution
from repro.core.tree import validate_solution


def channel_on(network, path):
    return Channel.from_path(network, path)


def solution_of(network, channels, users=None):
    return MUERPSolution(
        channels=tuple(channels),
        users=frozenset(users or network.user_ids),
        method="handmade",
    )


class TestHappyPath:
    def test_valid_star(self, star_network):
        channels = [
            channel_on(star_network, ["alice", "hub", "bob"]),
            channel_on(star_network, ["alice", "hub", "carol"]),
        ]
        report = validate_solution(star_network, solution_of(star_network, channels))
        assert report.ok

    def test_infeasible_validates_trivially(self, star_network):
        report = validate_solution(
            star_network, infeasible_solution(star_network.user_ids, "x")
        )
        assert report.ok


class TestStructuralViolations:
    def test_wrong_channel_count(self, star_network):
        channels = [channel_on(star_network, ["alice", "hub", "bob"])]
        report = validate_solution(star_network, solution_of(star_network, channels))
        assert not report.ok
        assert any(
            issue.startswith("[channel-count]") for issue in report.issues
        )

    def test_cycle_detected(self, star_network):
        channels = [
            channel_on(star_network, ["alice", "hub", "bob"]),
            Channel(("bob", "alice"), -0.1),  # fake direct channel
        ]
        solution = solution_of(star_network, channels, users=["alice", "bob"])
        report = validate_solution(star_network, solution)
        assert not report.ok

    def test_missing_fiber_detected(self, star_network):
        fake = Channel(("alice", "bob"), -0.1)
        solution = solution_of(star_network, [fake], users=["alice", "bob"])
        report = validate_solution(star_network, solution)
        assert any(issue.startswith("[path]") for issue in report.issues)

    def test_wrong_rate_detected(self, star_network):
        good = channel_on(star_network, ["alice", "hub", "bob"])
        bad = Channel(good.path, good.log_rate - 1.0)
        solution = solution_of(star_network, [bad], users=["alice", "bob"])
        report = validate_solution(star_network, solution)
        assert any(issue.startswith("[rate]") for issue in report.issues)

    def test_non_switch_intermediate_detected(self, params_q09):
        from repro.network import NetworkBuilder

        net = (
            NetworkBuilder(params_q09)
            .user("a", (0, 0))
            .user("m", (10, 0))
            .user("b", (20, 0))
            .fiber("a", "m", 10)
            .fiber("m", "b", 10)
            .build()
        )
        bad = Channel(("a", "m", "b"), -0.002)
        solution = solution_of(net, [bad], users=["a", "b"])
        report = validate_solution(net, solution, rate_tolerance=10.0)
        assert any("not a switch" in issue for issue in report.issues)

    def test_infeasible_with_channels_flagged(self, star_network):
        channel = channel_on(star_network, ["alice", "hub", "bob"])
        broken = MUERPSolution(
            channels=(channel,),
            users=frozenset(star_network.user_ids),
            feasible=False,
        )
        report = validate_solution(star_network, broken)
        assert not report.ok


class TestCapacity:
    def test_over_capacity_detected(self, tight_star_network):
        channels = [
            channel_on(tight_star_network, ["alice", "hub", "bob"]),
            channel_on(tight_star_network, ["alice", "hub", "carol"]),
        ]
        solution = solution_of(tight_star_network, channels)
        report = validate_solution(tight_star_network, solution)
        assert any(issue.startswith("[capacity]") for issue in report.issues)

    def test_capacity_check_skippable(self, tight_star_network):
        channels = [
            channel_on(tight_star_network, ["alice", "hub", "bob"]),
            channel_on(tight_star_network, ["alice", "hub", "carol"]),
        ]
        solution = solution_of(tight_star_network, channels)
        report = validate_solution(
            tight_star_network, solution, enforce_capacity=False
        )
        assert report.ok, str(report)

