"""Tests for the QuantumNetwork graph."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.network.errors import (
    DuplicateFiberError,
    DuplicateNodeError,
    UnknownNodeError,
)
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.utils.validation import ValidationError


@pytest.fixture
def simple() -> QuantumNetwork:
    net = QuantumNetwork()
    net.add_user("alice", (0, 0))
    net.add_user("bob", (100, 0))
    net.add_switch("s", (50, 0), qubits=6)
    net.add_fiber("alice", "s")
    net.add_fiber("s", "bob")
    return net


class TestNetworkParams:
    def test_defaults_match_paper(self):
        params = NetworkParams()
        assert params.alpha == 1e-4
        assert params.swap_prob == 0.9

    def test_invalid_alpha(self):
        with pytest.raises(ValidationError):
            NetworkParams(alpha=0.0)

    def test_invalid_swap_prob(self):
        with pytest.raises(ValidationError):
            NetworkParams(swap_prob=1.5)


class TestConstruction:
    def test_counts(self, simple):
        assert len(simple) == 3
        assert len(simple.users) == 2
        assert len(simple.switches) == 1
        assert simple.n_fibers == 2

    def test_duplicate_node_rejected(self, simple):
        with pytest.raises(DuplicateNodeError):
            simple.add_user("alice")
        with pytest.raises(DuplicateNodeError):
            simple.add_switch("alice")

    def test_duplicate_fiber_rejected(self, simple):
        with pytest.raises(DuplicateFiberError):
            simple.add_fiber("alice", "s")
        with pytest.raises(DuplicateFiberError):
            simple.add_fiber("s", "alice")

    def test_fiber_to_unknown_node_rejected(self, simple):
        with pytest.raises(UnknownNodeError):
            simple.add_fiber("alice", "ghost")

    def test_fiber_default_length_is_euclidean(self, simple):
        fiber = simple.fiber_between("alice", "s")
        assert math.isclose(fiber.length, 50.0)

    def test_fiber_explicit_length(self):
        net = QuantumNetwork()
        net.add_user("a", (0, 0))
        net.add_user("b", (0, 0))
        fiber = net.add_fiber("a", "b", length=123.0)
        assert fiber.length == 123.0

    def test_coincident_nodes_get_tiny_positive_length(self):
        net = QuantumNetwork()
        net.add_user("a", (5, 5))
        net.add_user("b", (5, 5))
        fiber = net.add_fiber("a", "b")
        assert fiber.length > 0.0


class TestQueries:
    def test_node_lookup(self, simple):
        assert simple.node("alice").is_user
        assert simple.node("s").is_switch

    def test_unknown_node_raises(self, simple):
        with pytest.raises(UnknownNodeError):
            simple.node("ghost")

    def test_contains(self, simple):
        assert "alice" in simple
        assert "ghost" not in simple

    def test_kind_predicates(self, simple):
        assert simple.is_user("alice")
        assert not simple.is_user("s")
        assert simple.is_switch("s")

    def test_qubits_of(self, simple):
        assert simple.qubits_of("s") == 6
        assert simple.qubits_of("alice") is None

    def test_neighbors(self, simple):
        assert set(simple.neighbors("s")) == {"alice", "bob"}
        assert set(simple.neighbors("alice")) == {"s"}

    def test_degree_and_average_degree(self, simple):
        assert simple.degree("s") == 2
        assert simple.degree("alice") == 1
        assert math.isclose(simple.average_degree(), 4 / 3)

    def test_incident_fibers(self, simple):
        assert len(simple.incident_fibers("s")) == 2

    def test_fiber_between_absent(self, simple):
        assert simple.fiber_between("alice", "bob") is None
        assert not simple.has_fiber("alice", "bob")

    def test_link_success(self, simple):
        expected = math.exp(-1e-4 * 50.0)
        assert math.isclose(simple.link_success("alice", "s"), expected)

    def test_link_success_missing_fiber_raises(self, simple):
        with pytest.raises(UnknownNodeError):
            simple.link_success("alice", "bob")


class TestGraphOps:
    def test_is_connected(self, simple):
        assert simple.is_connected()
        simple.remove_fiber("alice", "s")
        assert not simple.is_connected()

    def test_empty_network_is_connected(self):
        assert QuantumNetwork().is_connected()

    def test_connected_components(self, simple):
        simple.remove_fiber("s", "bob")
        components = simple.connected_components()
        assert sorted(len(c) for c in components) == [1, 2]

    def test_remove_fiber_returns_it(self, simple):
        fiber = simple.remove_fiber("alice", "s")
        assert fiber.key == ("alice", "s")
        assert simple.n_fibers == 1

    def test_remove_missing_fiber_raises(self, simple):
        with pytest.raises(UnknownNodeError):
            simple.remove_fiber("alice", "bob")

    def test_copy_is_independent(self, simple):
        clone = simple.copy()
        clone.remove_fiber("alice", "s")
        assert simple.n_fibers == 2
        assert clone.n_fibers == 1

    def test_with_switch_qubits(self, simple):
        upgraded = simple.with_switch_qubits(20)
        assert upgraded.qubits_of("s") == 20
        assert simple.qubits_of("s") == 6
        assert upgraded.n_fibers == simple.n_fibers

    def test_with_params(self, simple):
        changed = simple.with_params(NetworkParams(alpha=1e-3, swap_prob=0.5))
        assert changed.params.swap_prob == 0.5
        assert simple.params.swap_prob == 0.9

    def test_residual_qubits(self, simple):
        assert simple.residual_qubits() == {"s": 6}

    def test_to_networkx(self, simple):
        graph = simple.to_networkx()
        assert isinstance(graph, nx.Graph)
        assert set(graph.nodes) == {"alice", "bob", "s"}
        assert graph.nodes["s"]["qubits"] == 6
        assert graph.nodes["alice"]["kind"] == "user"
        assert math.isclose(
            graph.edges["alice", "s"]["p"], math.exp(-1e-4 * 50.0)
        )

    def test_total_fiber_length(self, simple):
        assert math.isclose(simple.total_fiber_length(), 100.0)

    def test_repr_mentions_counts(self, simple):
        text = repr(simple)
        assert "users=2" in text and "switches=1" in text
