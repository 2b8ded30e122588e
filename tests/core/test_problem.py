"""Tests for Channel and MUERPSolution objects."""

from __future__ import annotations

import math

import pytest

from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.core.tree import validate_solution


def make_channel(path, rate):
    return Channel(tuple(path), math.log(rate))


class TestChannel:
    def test_from_path_computes_rate(self, line_network):
        channel = Channel.from_path(line_network, ["alice", "s0", "s1", "bob"])
        expected = 0.9**2 * math.exp(-1e-4 * 3000)
        assert math.isclose(channel.rate, expected)

    def test_endpoints_and_switches(self):
        channel = make_channel(["a", "s1", "s2", "b"], 0.5)
        assert channel.endpoints == ("a", "b")
        assert channel.switches == ("s1", "s2")
        assert channel.n_links == 3
        assert channel.n_swaps == 2

    def test_direct_channel_no_swaps(self):
        channel = make_channel(["a", "b"], 0.9)
        assert channel.switches == ()
        assert channel.n_swaps == 0

    def test_endpoint_key_is_order_insensitive(self):
        c1 = make_channel(["a", "s", "b"], 0.5)
        assert c1.endpoint_key == frozenset(("a", "b"))
        assert c1.reversed().endpoint_key == c1.endpoint_key

    def test_reversed_preserves_rate(self):
        channel = make_channel(["a", "s", "b"], 0.5)
        reverse = channel.reversed()
        assert reverse.path == ("b", "s", "a")
        assert reverse.log_rate == channel.log_rate

    def test_uses_switch(self):
        channel = make_channel(["a", "s", "b"], 0.5)
        assert channel.uses_switch("s")
        assert not channel.uses_switch("a")  # endpoints aren't transit

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_channel(["a"], 0.5)

    def test_revisiting_path_rejected(self):
        with pytest.raises(ValueError):
            make_channel(["a", "s", "a"], 0.5)


class TestMUERPSolution:
    def _solution(self):
        channels = (
            make_channel(["u1", "s1", "u2"], 0.5),
            make_channel(["u2", "s2", "u3"], 0.25),
        )
        return MUERPSolution(
            channels=channels,
            users=frozenset(("u1", "u2", "u3")),
            method="test",
        )

    def test_rate_is_product(self):
        assert math.isclose(self._solution().rate, 0.125)

    def test_log_rate(self):
        assert math.isclose(self._solution().log_rate, math.log(0.125))

    def test_extra_log_rate_multiplies(self):
        base = self._solution()
        boosted = MUERPSolution(
            channels=base.channels,
            users=base.users,
            extra_log_rate=math.log(0.5),
        )
        assert math.isclose(boosted.rate, 0.0625)

    def test_switch_usage_two_qubits_per_transit(self):
        usage = self._solution().switch_usage()
        assert usage == {"s1": 2, "s2": 2}

    def test_switch_usage_accumulates(self):
        channels = (
            make_channel(["u1", "s", "u2"], 0.5),
            make_channel(["u2", "s", "u3"], 0.5),
        )
        solution = MUERPSolution(
            channels=channels, users=frozenset(("u1", "u2", "u3"))
        )
        assert solution.switch_usage() == {"s": 4}

    def test_spans_users(self, star_network):
        channels = (
            Channel.from_path(star_network, ["alice", "hub", "bob"]),
            Channel.from_path(star_network, ["bob", "hub", "carol"]),
        )
        solution = MUERPSolution(
            channels=channels, users=frozenset(star_network.user_ids)
        )
        assert validate_solution(star_network, solution).ok

    def test_does_not_span_disconnected(self, star_network):
        solution = MUERPSolution(
            channels=(
                Channel.from_path(star_network, ["alice", "hub", "bob"]),
            ),
            users=frozenset(star_network.user_ids),
        )
        issues = validate_solution(star_network, solution).issues
        assert any(issue.startswith("[spanning]") for issue in issues)

    def test_totals(self):
        solution = self._solution()
        assert solution.total_links() == 4
        assert solution.total_swaps() == 2
        assert solution.n_channels == 2

    def test_user_adjacency(self):
        adjacency = self._solution().user_adjacency()
        assert set(adjacency["u2"]) == {"u1", "u3"}


class TestInfeasible:
    def test_rate_zero(self):
        solution = infeasible_solution(["a", "b"], "x")
        assert solution.rate == 0.0
        assert solution.log_rate == -math.inf
        assert not solution.feasible
        assert solution.channels == ()

    def test_method_recorded(self):
        assert infeasible_solution(["a", "b"], "prim").method == "prim"


class TestResolveUsers:
    def test_default_all_users(self, star_network):
        users = resolve_users(star_network, None)
        assert set(users) == {"alice", "bob", "carol"}

    def test_subset(self, star_network):
        assert resolve_users(star_network, ["alice", "bob"]) == ["alice", "bob"]

    def test_non_user_rejected(self, star_network):
        with pytest.raises(ValueError):
            resolve_users(star_network, ["alice", "hub"])

    def test_duplicates_rejected(self, star_network):
        with pytest.raises(ValueError):
            resolve_users(star_network, ["alice", "alice"])

    def test_single_user_rejected(self, star_network):
        with pytest.raises(ValueError):
            resolve_users(star_network, ["alice"])
