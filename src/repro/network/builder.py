"""Fluent construction helpers for :class:`~repro.network.QuantumNetwork`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Tuple

from repro.network.graph import NetworkParams, QuantumNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


class NetworkBuilder:
    """Chainable builder for small hand-made networks (tests, examples).

    >>> net = (
    ...     NetworkBuilder()
    ...     .user("alice", (0, 0))
    ...     .user("bob", (2, 0))
    ...     .switch("s", (1, 0), qubits=4)
    ...     .fiber("alice", "s")
    ...     .fiber("s", "bob")
    ...     .build()
    ... )
    >>> len(net.users), len(net.switches)
    (2, 1)
    """

    def __init__(self, params: Optional[NetworkParams] = None) -> None:
        self._network = QuantumNetwork(params)

    def params(self, alpha: float, swap_prob: float) -> "NetworkBuilder":
        """Set physical parameters (must be called before ``build``)."""
        self._network.params = NetworkParams(alpha=alpha, swap_prob=swap_prob)
        return self

    def user(
        self, node_id: Hashable, position: Tuple[float, float] = (0.0, 0.0)
    ) -> "NetworkBuilder":
        """Add a quantum user."""
        self._network.add_user(node_id, position)
        return self

    def users(self, node_ids: Iterable[Hashable]) -> "NetworkBuilder":
        """Add several users at the origin (positions rarely matter in tests)."""
        for node_id in node_ids:
            self._network.add_user(node_id)
        return self

    def switch(
        self,
        node_id: Hashable,
        position: Tuple[float, float] = (0.0, 0.0),
        qubits: int = 4,
    ) -> "NetworkBuilder":
        """Add a quantum switch."""
        self._network.add_switch(node_id, position, qubits=qubits)
        return self

    def fiber(
        self,
        u: Hashable,
        v: Hashable,
        length: Optional[float] = None,
        cores: Optional[int] = None,
    ) -> "NetworkBuilder":
        """Add an optical fiber (length defaults to Euclidean distance)."""
        self._network.add_fiber(u, v, length, cores)
        return self

    def path(
        self,
        node_ids: Iterable[Hashable],
        length: Optional[float] = None,
    ) -> "NetworkBuilder":
        """Connect consecutive nodes of *node_ids* with fibers."""
        ids = list(node_ids)
        for u, v in zip(ids, ids[1:]):
            self._network.add_fiber(u, v, length)
        return self

    def build(self) -> QuantumNetwork:
        """Return the constructed network."""
        return self._network


def network_from_networkx(
    graph: nx.Graph,
    user_ids: Iterable[Hashable],
    params: Optional[NetworkParams] = None,
    default_qubits: int = 4,
    default_length: float = 1.0,
) -> QuantumNetwork:
    """Convert a ``networkx.Graph`` into a :class:`QuantumNetwork`.

    Nodes listed in *user_ids* become quantum users; everything else
    becomes a switch.  Node attribute ``qubits`` and edge attribute
    ``length`` are honoured when present; ``position`` defaults to (0, 0).
    """
    users = set(user_ids)
    missing = users - set(graph.nodes)
    if missing:
        raise ValueError(f"user ids not in graph: {sorted(map(repr, missing))}")
    network = QuantumNetwork(params)
    for node_id, attrs in graph.nodes(data=True):
        position = tuple(attrs.get("position", (0.0, 0.0)))
        if node_id in users:
            network.add_user(node_id, position)
        else:
            network.add_switch(
                node_id, position, qubits=attrs.get("qubits", default_qubits)
            )
    for u, v, attrs in graph.edges(data=True):
        network.add_fiber(u, v, attrs.get("length", default_length))
    return network
