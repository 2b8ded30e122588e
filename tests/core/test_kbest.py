"""Tests for Yen-style k-best channel enumeration."""

from __future__ import annotations

import math

import pytest

from repro.core.bruteforce import enumerate_channels
from repro.core.channel import find_best_channel
from repro.core.kbest import channel_diversity, k_best_channels
from repro.core.ledger import CapacityLedger
from repro.network import NetworkBuilder
from repro.topology import TopologyConfig, waxman_network


class TestKBest:
    def test_k1_matches_algorithm1(self, medium_waxman):
        users = medium_waxman.user_ids
        best_list = k_best_channels(medium_waxman, users[0], users[1], k=1)
        alg1 = find_best_channel(medium_waxman, users[0], users[1])
        assert len(best_list) == 1
        assert math.isclose(
            best_list[0].log_rate, alg1.log_rate, rel_tol=1e-12
        )

    def test_two_route_network(self, two_path_network):
        channels = k_best_channels(two_path_network, "alice", "bob", k=5)
        assert len(channels) == 2
        assert channels[0].path == ("alice", "mid", "bob")
        assert channels[1].path == ("alice", "bob")

    def test_descending_order(self, two_path_network):
        channels = k_best_channels(two_path_network, "alice", "bob", k=5)
        for first, second in zip(channels, channels[1:]):
            assert first.log_rate >= second.log_rate - 1e-12

    def test_loopless_and_unique(self, small_waxman):
        users = small_waxman.user_ids
        channels = k_best_channels(small_waxman, users[0], users[1], k=6)
        paths = [c.path for c in channels]
        assert len(set(paths)) == len(paths)
        for path in paths:
            assert len(set(path)) == len(path)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_top_k(self, seed):
        config = TopologyConfig(
            n_switches=6, n_users=2, avg_degree=3.0, qubits_per_switch=4
        )
        net = waxman_network(config, rng=seed)
        users = net.user_ids
        brute = enumerate_channels(net, users[0], users[1], max_paths=5000)
        brute.sort(key=lambda c: -c.log_rate)
        k = min(3, len(brute))
        if k == 0:
            assert k_best_channels(net, users[0], users[1], k=3) == []
            return
        ours = k_best_channels(net, users[0], users[1], k=k)
        assert len(ours) == k
        for mine, truth in zip(ours, brute[:k]):
            assert math.isclose(
                mine.log_rate, truth.log_rate, rel_tol=1e-9
            ), f"seed {seed}: {mine.path} vs {truth.path}"

    def test_no_channel(self, params_q09):
        net = (
            NetworkBuilder(params_q09)
            .user("a", (0, 0))
            .user("b", (10, 0))
            .build()
        )
        assert k_best_channels(net, "a", "b", k=3) == []

    def test_bad_k_rejected(self, two_path_network):
        with pytest.raises(ValueError):
            k_best_channels(two_path_network, "alice", "bob", k=0)

    def test_residual_capacity_respected(self, two_path_network):
        channels = k_best_channels(
            two_path_network,
            "alice",
            "bob",
            k=5,
            residual=CapacityLedger({"mid": 0}),
        )
        assert [c.path for c in channels] == [("alice", "bob")]


class TestDiversity:
    def test_two_route_pair_has_diversity(self, two_path_network):
        diversity = channel_diversity(two_path_network, "alice", "bob", k=2)
        direct = math.exp(-2.0)  # 20_000 km
        switched = 0.9 * math.exp(-0.1)
        assert math.isclose(diversity, direct / switched, rel_tol=1e-9)

    def test_single_route_pair_is_zero(self, line_network):
        assert channel_diversity(line_network, "alice", "bob", k=2) == 0.0

    def test_diversity_bounded(self, medium_waxman):
        users = medium_waxman.user_ids
        diversity = channel_diversity(medium_waxman, users[0], users[1], k=2)
        assert 0.0 <= diversity <= 1.0
