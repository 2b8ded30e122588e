"""Second-wave tests: edge cases surfaced by reviewing module surfaces.

Each test here covers a distinct behaviour not exercised by the primary
per-module suites.
"""

from __future__ import annotations

import math

import pytest

from repro.network import NetworkBuilder, NetworkParams


class TestTopologyMetadata:
    """The *_topology variants return generation metadata."""

    def test_waxman_topology_metadata(self):
        from repro.topology.base import TopologyConfig
        from repro.topology.waxman import waxman_topology

        config = TopologyConfig(n_switches=8, n_users=3, avg_degree=4.0)
        result = waxman_topology(config, rng=0)
        assert result.method == "waxman"
        assert result.config is config
        assert set(result.positions) == set(result.network.node_ids)

    def test_watts_strogatz_topology_metadata(self):
        from repro.topology.base import TopologyConfig
        from repro.topology.watts_strogatz import watts_strogatz_topology

        config = TopologyConfig(n_switches=8, n_users=3, avg_degree=4.0)
        result = watts_strogatz_topology(config, rng=0)
        assert result.method == "watts_strogatz"

    def test_volchenkov_topology_metadata(self):
        from repro.topology.base import TopologyConfig
        from repro.topology.volchenkov import volchenkov_topology

        config = TopologyConfig(n_switches=8, n_users=3, avg_degree=4.0)
        result = volchenkov_topology(config, rng=0)
        assert result.method == "volchenkov"

    def test_erdos_renyi_topology_metadata(self):
        from repro.topology.base import TopologyConfig
        from repro.topology.extras import erdos_renyi_topology

        config = TopologyConfig(n_switches=8, n_users=3, avg_degree=4.0)
        result = erdos_renyi_topology(config, rng=0)
        assert result.method == "erdos_renyi"


class TestIoNodeIdGuard:
    def test_tuple_ids_rejected(self, params_q09):
        from repro.network.io import network_to_dict

        net = NetworkBuilder(params_q09).user(("t", 1)).user("b").build()
        with pytest.raises(TypeError, match="JSON"):
            network_to_dict(net)

    def test_bool_ids_rejected(self, params_q09):
        from repro.network.io import network_to_dict

        net = NetworkBuilder(params_q09).user(True).user("b").build()
        with pytest.raises(TypeError):
            network_to_dict(net)

    def test_int_ids_fine(self, params_q09):
        from repro.network.io import network_from_json, network_to_json

        net = (
            NetworkBuilder(params_q09)
            .user(1, (0, 0))
            .user(2, (10, 0))
            .fiber(1, 2, 10)
            .build()
        )
        restored = network_from_json(network_to_json(net))
        assert restored.has_fiber(1, 2)


class TestKBestEdgeCases:
    def test_k_exceeds_available(self, line_network):
        from repro.core.kbest import k_best_channels

        channels = k_best_channels(line_network, "alice", "bob", k=10)
        assert len(channels) == 1

    def test_deterministic_across_calls(self, medium_waxman):
        from repro.core.kbest import k_best_channels

        users = medium_waxman.user_ids
        a = k_best_channels(medium_waxman, users[0], users[1], k=4)
        b = k_best_channels(medium_waxman, users[0], users[1], k=4)
        assert [c.path for c in a] == [c.path for c in b]


class TestParetoLabelCap:
    def test_label_cap_keeps_best_rate(self, medium_waxman):
        """Even with a tiny per-node label cap the max-rate channel (the
        cheapest label everywhere) must survive pruning."""
        from repro.core.channel import find_best_channel
        from repro.extensions.fidelity_aware import pareto_channels

        users = medium_waxman.user_ids
        frontier = pareto_channels(
            medium_waxman, users[0], users[1], max_labels_per_node=2
        )
        best = find_best_channel(medium_waxman, users[0], users[1])
        assert frontier
        assert math.isclose(
            frontier[0].channel.log_rate, best.log_rate, rel_tol=1e-9
        )


class TestMultigroupOverlap:
    def test_groups_may_share_users(self, medium_waxman):
        """Users have unlimited memory: the same user can join several
        groups; only switch budgets are contended."""
        from repro.extensions.multigroup import GroupRequest, route_groups

        users = medium_waxman.user_ids
        groups = [
            GroupRequest("one", tuple(users[:3])),
            GroupRequest("two", tuple(users[1:4])),  # overlaps on users[1:3]
        ]
        result = route_groups(medium_waxman, groups, rng=0)
        assert set(result.solutions) == {"one", "two"}


class TestLocalSearchRounds:
    def test_max_rounds_zero_is_identity(self, medium_waxman):
        from repro.baselines.random_tree import solve_random_tree
        from repro.core.localsearch import improve_solution

        base = solve_random_tree(medium_waxman, rng=2)
        if base.feasible:
            same = improve_solution(medium_waxman, base, max_rounds=0)
            assert same is base


class TestMemoryComparisonHelpers:
    def test_memoryless_expectation_infinite_for_zero_rate(self, star_network):
        from repro.core.problem import MUERPSolution
        from repro.core.problem import Channel

        # A feasible but rate-degenerate solution can't occur naturally;
        # check the comparison handles rate → 0 via a tiny-rate channel.
        channel = Channel(("alice", "hub", "bob"), -800.0)
        solution = MUERPSolution(
            channels=(channel,),
            users=frozenset(("alice", "bob")),
            feasible=True,
        )
        assert solution.rate == 0.0  # exp(-800) underflows to 0
        from repro.sim.memory import compare_memory_windows

        comparison = compare_memory_windows(
            star_network, solution, windows=(1,), runs=1, rng=0
        )
        assert comparison.memoryless_expectation == math.inf


class TestEngineSlotDuration:
    def test_timestamps_scale_with_slot_duration(self, star_network):
        from repro.core.optimal import solve_optimal
        from repro.sim.engine import SlottedEntanglementSimulator

        solution = solve_optimal(star_network)
        simulator = SlottedEntanglementSimulator(
            star_network, solution, rng=0, slot_duration=10.0, trace=True
        )
        result = simulator.run()
        times = [float(line.split()[0][2:]) for line in result.log]
        # Swap events live at slot_start + 5.0 under duration 10.
        assert any(t % 10.0 == 5.0 for t in times)


class TestChannelAllPairsWithResidual:
    def test_residual_shared_across_pairs(self, star_network):
        from repro.core.channel import all_pairs_best_channels
        from repro.core.ledger import CapacityLedger

        # Hub depleted: no pair has a channel.
        channels = all_pairs_best_channels(
            star_network,
            star_network.user_ids,
            residual=CapacityLedger({"hub": 0}),
        )
        assert channels == {}


class TestEqcastTwoUsers:
    def test_degenerate_single_pair(self, direct_pair):
        from repro.baselines.eqcast import solve_eqcast

        solution = solve_eqcast(direct_pair)
        assert solution.feasible
        assert solution.n_channels == 1


class TestValidationTolerances:
    def test_rate_tolerance_loosens_check(self, star_network):
        from repro.core.problem import Channel, MUERPSolution
        from repro.core.tree import validate_solution

        good = Channel.from_path(star_network, ["alice", "hub", "bob"])
        slightly_off = Channel(good.path, good.log_rate * (1 + 1e-6))
        solution = MUERPSolution(
            channels=(slightly_off,),
            users=frozenset(("alice", "bob")),
        )
        strict = validate_solution(
            star_network, solution, rate_tolerance=1e-12
        )
        loose = validate_solution(
            star_network, solution, rate_tolerance=1e-3
        )
        assert not strict.ok
        assert loose.ok


class TestNetworkParamsEquality:
    def test_frozen_dataclass_semantics(self):
        assert NetworkParams() == NetworkParams(alpha=1e-4, swap_prob=0.9)
        with pytest.raises(AttributeError):
            NetworkParams().alpha = 1.0
