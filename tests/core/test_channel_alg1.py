"""Tests for Algorithm 1 — maximum-entanglement-rate channel search."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import enumerate_channels
from repro.core.channel import (
    all_pairs_best_channels,
    best_channels_from,
    find_best_channel,
)
from repro.core.ledger import CapacityLedger
from repro.network import NetworkBuilder, NetworkParams
from repro.topology import TopologyConfig, waxman_network


class TestBasics:
    def test_line_network_unique_channel(self, line_network):
        channel = find_best_channel(line_network, "alice", "bob")
        assert channel.path == ("alice", "s0", "s1", "bob")
        expected = 0.9**2 * math.exp(-0.3)
        assert math.isclose(channel.rate, expected)

    def test_direct_fiber(self, direct_pair):
        channel = find_best_channel(direct_pair, "alice", "bob")
        assert channel.path == ("alice", "bob")
        assert math.isclose(channel.rate, math.exp(-0.05))

    def test_prefers_switched_path_when_better(self, two_path_network):
        """Rate is multiplicative, not hop-count: q·e^{-0.1} beats e^{-2}."""
        channel = find_best_channel(two_path_network, "alice", "bob")
        assert channel.path == ("alice", "mid", "bob")

    def test_prefers_direct_when_switch_depleted(self, two_path_network):
        channel = find_best_channel(
            two_path_network,
            "alice",
            "bob",
            residual=CapacityLedger({"mid": 0}),
        )
        assert channel.path == ("alice", "bob")

    def test_residual_one_qubit_is_not_enough(self, two_path_network):
        """Line 11 of Algorithm 1: a transit switch needs >= 2 qubits."""
        channel = find_best_channel(
            two_path_network,
            "alice",
            "bob",
            residual=CapacityLedger({"mid": 1}),
        )
        assert channel.path == ("alice", "bob")

    def test_no_channel_returns_none(self, params_q09):
        net = (
            NetworkBuilder(params_q09)
            .user("a", (0, 0))
            .user("b", (10, 0))
            .build()
        )
        assert find_best_channel(net, "a", "b") is None

    def test_same_user_rejected(self, line_network):
        with pytest.raises(ValueError):
            find_best_channel(line_network, "alice", "alice")

    def test_switch_endpoint_rejected(self, line_network):
        with pytest.raises(ValueError):
            find_best_channel(line_network, "alice", "s0")
        with pytest.raises(ValueError):
            find_best_channel(line_network, "s0", "alice")

    def test_other_users_cannot_relay(self, params_q09):
        """Def. 2: channels run through vertices in R only."""
        net = (
            NetworkBuilder(params_q09)
            .user("a", (0, 0))
            .user("m", (100, 0))
            .user("b", (200, 0))
            .fiber("a", "m", 100)
            .fiber("m", "b", 100)
            .build()
        )
        assert find_best_channel(net, "a", "b") is None

    def test_forbidden_fibers_respected(self, two_path_network):
        from repro.network.link import fiber_key

        channel = find_best_channel(
            two_path_network,
            "alice",
            "bob",
            forbidden_fibers={fiber_key("alice", "mid")},
        )
        assert channel.path == ("alice", "bob")

    def test_q_zero_only_direct_channels(self, params_q09):
        from repro.network import NetworkParams

        net = (
            NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.0))
            .user("a", (0, 0))
            .switch("s", (100, 0))
            .user("b", (200, 0))
            .path(["a", "s", "b"])
            .fiber("a", "b", 5000)
            .build()
        )
        channel = find_best_channel(net, "a", "b")
        assert channel.path == ("a", "b")

    def test_q_zero_no_direct_returns_none(self):
        net = (
            NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.0))
            .user("a", (0, 0))
            .switch("s", (100, 0))
            .user("b", (200, 0))
            .path(["a", "s", "b"])
            .build()
        )
        assert find_best_channel(net, "a", "b") is None


class TestMultiTarget:
    def test_best_channels_from_all_targets(self, star_network):
        channels = best_channels_from(
            star_network, "alice", ["bob", "carol"]
        )
        assert set(channels) == {"bob", "carol"}
        assert channels["bob"].path == ("alice", "hub", "bob")

    def test_single_run_matches_pairwise(self, medium_waxman):
        users = medium_waxman.user_ids
        source = users[0]
        multi = best_channels_from(medium_waxman, source, users[1:])
        for target in users[1:]:
            single = find_best_channel(medium_waxman, source, target)
            if single is None:
                assert target not in multi
            else:
                assert math.isclose(
                    multi[target].log_rate, single.log_rate, rel_tol=1e-12
                )

    def test_all_pairs_covers_every_pair(self, small_waxman):
        users = small_waxman.user_ids
        channels = all_pairs_best_channels(small_waxman, users)
        expected_pairs = {
            frozenset((a, b))
            for i, a in enumerate(users)
            for b in users[i + 1 :]
        }
        assert set(channels) == expected_pairs  # connected network

    def test_all_pairs_channels_are_symmetric_rates(self, small_waxman):
        users = small_waxman.user_ids
        channels = all_pairs_best_channels(small_waxman, users)
        for pair, channel in channels.items():
            a, b = tuple(pair)
            direct = find_best_channel(small_waxman, b, a)
            assert math.isclose(
                channel.log_rate, direct.log_rate, rel_tol=1e-12
            )


class TestOptimalityAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed):
        config = TopologyConfig(
            n_switches=7, n_users=2, avg_degree=3.0, qubits_per_switch=4
        )
        net = waxman_network(config, rng=seed)
        users = net.user_ids
        channel = find_best_channel(net, users[0], users[1])
        brute = enumerate_channels(net, users[0], users[1], max_paths=5000)
        if not brute:
            assert channel is None
            return
        best = max(c.log_rate for c in brute)
        assert channel is not None
        assert math.isclose(channel.log_rate, best, rel_tol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_channel_is_optimal_small_random(self, seed):
        config = TopologyConfig(
            n_switches=6, n_users=2, avg_degree=3.0, qubits_per_switch=6
        )
        net = waxman_network(config, rng=seed)
        users = net.user_ids
        channel = find_best_channel(net, users[0], users[1])
        brute = enumerate_channels(net, users[0], users[1], max_paths=5000)
        if brute:
            assert channel is not None
            assert channel.log_rate >= max(c.log_rate for c in brute) - 1e-9

    def test_returned_path_rate_is_consistent(self, medium_waxman):
        from repro.core.rates import channel_log_rate

        users = medium_waxman.user_ids
        channel = find_best_channel(medium_waxman, users[0], users[1])
        assert math.isclose(
            channel.log_rate,
            channel_log_rate(medium_waxman, channel.path),
            rel_tol=1e-12,
        )
