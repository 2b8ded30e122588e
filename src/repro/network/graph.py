"""The quantum network graph ``G = (V = U ∪ R, E)``.

:class:`QuantumNetwork` is the central substrate object every routing
algorithm operates on.  It stores users, switches, fibers, and the two
physical parameters of the paper's model:

* ``alpha`` — fiber attenuation constant (default ``1e-4`` per km, the
  paper's simulation setting), giving link success ``p = exp(-α·L)``;
* ``swap_prob`` — BSM entanglement-swapping success probability ``q``
  (default 0.9), uniform across switches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.network.errors import (
    DuplicateFiberError,
    DuplicateNodeError,
    UnknownNodeError,
)
from repro.network.link import OpticalFiber, fiber_key
from repro.network.node import Node, QuantumSwitch, QuantumUser
from repro.utils.validation import require_positive, require_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


def _fiber_event(key: Tuple[Hashable, Hashable], restored: bool):
    """The DeltaEvent for a fiber add/remove, or None when no bus runs.

    The event object is only materialized while a
    :class:`~repro.incremental.delta.DeltaBus` is active, so plain
    topology construction pays one module-dict lookup per mutation.
    """
    from repro.incremental import delta as incremental_delta

    if incremental_delta.active() is None:
        return None
    from repro.incremental.events import DeltaEvent

    if restored:
        return DeltaEvent.fiber_restore(*key)
    return DeltaEvent.fiber_cut(*key)


class RoutingSnapshot(NamedTuple):
    """Int-indexed, read-only view of a network's routing structure.

    Node ``i`` is ``ids[i]`` (insertion order) and ``index`` inverts
    that.  ``rows[i]`` lists ``(neighbor_index, fiber_key, length)`` for
    every fiber at node ``i``, in adjacency insertion order — the order
    the channel search scans them in, which fixes its tie-breaking.
    Lengths are raw kilometres, not ``α·L``, so the snapshot stays valid
    across parameter changes.
    """

    ids: List[Hashable]
    index: Dict[Hashable, int]
    is_switch: List[bool]
    switches: List[Tuple[int, Hashable]]  # (index, id) per switch
    rows: List[List[Tuple[int, Tuple[Hashable, Hashable], float]]]


@dataclass(frozen=True)
class NetworkParams:
    """Physical parameters shared by the whole network.

    Attributes:
        alpha: Fiber attenuation constant (1/km); the paper sets 1e-4.
        swap_prob: BSM swapping success rate ``q`` in [0, 1]; paper: 0.9.
    """

    alpha: float = 1e-4
    swap_prob: float = 0.9

    def __post_init__(self) -> None:
        require_positive(self.alpha, "alpha")
        require_probability(self.swap_prob, "swap_prob")


class QuantumNetwork:
    """Mutable quantum-network topology with users, switches and fibers.

    Node identifiers are arbitrary hashables.  Fibers are undirected and
    unique per node pair (the paper's graph has no parallel edges; a
    fiber's multiple cores model link multiplicity instead).
    """

    def __init__(self, params: Optional[NetworkParams] = None) -> None:
        self.params = params or NetworkParams()
        self._nodes: Dict[Hashable, Node] = {}
        self._fibers: Dict[Tuple[Hashable, Hashable], OpticalFiber] = {}
        self._adjacency: Dict[Hashable, Dict[Hashable, OpticalFiber]] = {}
        #: Memoized content hashes per scope; cleared on any mutation.
        self._fingerprints: Dict[str, str] = {}
        #: Lazily built by :meth:`routing_snapshot`; dropped when a node
        #: is added.  Fiber changes and row realignments only list their
        #: endpoints in ``_stale_rows``, patched on the next use.
        self._routing: Optional[RoutingSnapshot] = None
        self._stale_rows: Set[Hashable] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_user(
        self,
        node_id: Hashable,
        position: Tuple[float, float] = (0.0, 0.0),
    ) -> QuantumUser:
        """Add a quantum user and return it."""
        user = QuantumUser(node_id, position)
        self._register(user)
        return user

    def add_switch(
        self,
        node_id: Hashable,
        position: Tuple[float, float] = (0.0, 0.0),
        qubits: int = 4,
    ) -> QuantumSwitch:
        """Add a quantum switch with ``qubits`` memories and return it."""
        switch = QuantumSwitch(node_id, position, qubits=qubits)
        self._register(switch)
        return switch

    def _register(self, node: Node) -> None:
        if node.id in self._nodes:
            raise DuplicateNodeError(node.id)
        self._nodes[node.id] = node
        self._adjacency[node.id] = {}
        self._routing = None
        self._stale_rows.clear()
        self._content_changed()

    def _content_changed(self, event=None) -> None:
        """Invalidate memoized fingerprints after a structural mutation.

        With an active :class:`~repro.incremental.delta.DeltaBus`, the
        mutation is published as the typed *event* (a
        :class:`~repro.incremental.events.DeltaEvent`, when the mutator
        can name one) and the bus performs region-scoped cache hygiene.
        Otherwise this falls back to the legacy behaviour: tell the
        active channel cache that entries computed over the previous
        routing fingerprint are now unreachable, so they stop crowding
        the LRU window.
        """
        old_routing = self._fingerprints.pop("routing", None)
        self._fingerprints.clear()
        # Lazy imports: neither repro.exec.cache nor the incremental
        # delta layer imports the network package at module level, so
        # these cannot cycle back here.
        if event is not None:
            from repro.incremental import delta as incremental_delta

            bus = incremental_delta.active()
            if bus is not None:
                bus.publish(event, network=self, fingerprint=old_routing)
                return
        if old_routing is None:
            # Never fingerprinted: no cache entry can reference this
            # topology, so there is nothing to invalidate.
            return
        from repro.exec import cache as exec_cache

        cache = exec_cache.active()
        if cache is not None:
            cache.invalidate_graph(old_routing)

    def add_fiber(
        self,
        u: Hashable,
        v: Hashable,
        length: Optional[float] = None,
        cores: Optional[int] = None,
    ) -> OpticalFiber:
        """Add an optical fiber between existing nodes *u* and *v*.

        When *length* is omitted it defaults to the Euclidean distance
        between the endpoints' positions.
        """
        node_u = self.node(u)
        node_v = self.node(v)
        key = fiber_key(u, v)
        if key in self._fibers:
            raise DuplicateFiberError(u, v)
        if length is None:
            length = node_u.distance_to(node_v)
            if length <= 0.0:
                length = 1e-9  # coincident points: degenerate but legal
        kwargs = {} if cores is None else {"cores": cores}
        fiber = OpticalFiber(u, v, length, **kwargs)
        self._fibers[key] = fiber
        self._adjacency[u][v] = fiber
        self._adjacency[v][u] = fiber
        self._rows_changed(u, v)
        self._content_changed(event=_fiber_event(key, restored=True))
        return fiber

    def remove_fiber(self, u: Hashable, v: Hashable) -> OpticalFiber:
        """Remove and return the fiber between *u* and *v*."""
        key = fiber_key(u, v)
        try:
            fiber = self._fibers.pop(key)
        except KeyError:
            raise UnknownNodeError((u, v)) from None
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._rows_changed(u, v)
        self._content_changed(event=_fiber_event(key, restored=False))
        return fiber

    def align_fiber_order(
        self,
        reference: "QuantumNetwork",
        nodes: Optional[Iterable[Hashable]] = None,
    ) -> None:
        """Reorder adjacency rows to match *reference*.

        Path algorithms that scan incident fibers break equal-cost ties
        by adjacency order, so a view that removes and later re-adds a
        fiber must restore the reference ordering to stay byte-identical
        with a fresh rebuild of the same topology.  Pass *nodes* to
        realign only those rows (removals never reorder, so after a
        re-add only the two endpoints can be out of order); without it
        every row is realigned.  Each row costs O(degree).

        Only adjacency rows are realigned: the fiber dict keeps its
        order, which no search reads (the snapshot maps keys by fiber
        identity and :meth:`fingerprint` sorts them).  The realigned
        rows of the routing snapshot are marked stale, and the
        reordering bypasses :meth:`_content_changed`: content is
        unchanged.
        """
        for node_id in self._adjacency if nodes is None else nodes:
            row = self._adjacency.get(node_id)
            if row is None:
                continue
            ref_row = reference._adjacency.get(node_id, ())
            aligned = {
                other: row[other] for other in ref_row if other in row
            }
            for other, fiber in row.items():
                aligned.setdefault(other, fiber)
            self._adjacency[node_id] = aligned
            self._rows_changed(node_id)

    def _rows_changed(self, *nodes: Hashable) -> None:
        """Mark the snapshot rows of *nodes* for :meth:`routing_snapshot`
        to rebuild; a no-op while no snapshot exists."""
        if self._routing is not None:
            self._stale_rows.update(nodes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: Hashable) -> Node:
        """Return the node object for *node_id*."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> List[Hashable]:
        return list(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def users(self) -> List[QuantumUser]:
        """All quantum users, in insertion order."""
        return [n for n in self._nodes.values() if isinstance(n, QuantumUser)]

    @property
    def user_ids(self) -> List[Hashable]:
        return [n.id for n in self.users]

    @property
    def switches(self) -> List[QuantumSwitch]:
        """All quantum switches, in insertion order."""
        return [n for n in self._nodes.values() if isinstance(n, QuantumSwitch)]

    @property
    def switch_ids(self) -> List[Hashable]:
        return [n.id for n in self.switches]

    @property
    def fibers(self) -> List[OpticalFiber]:
        return list(self._fibers.values())

    @property
    def n_fibers(self) -> int:
        return len(self._fibers)

    def is_user(self, node_id: Hashable) -> bool:
        return isinstance(self.node(node_id), QuantumUser)

    def is_switch(self, node_id: Hashable) -> bool:
        return isinstance(self.node(node_id), QuantumSwitch)

    def qubits_of(self, node_id: Hashable) -> Optional[int]:
        """Qubit budget of a switch, or ``None`` for users (unlimited)."""
        node = self.node(node_id)
        return node.qubits if isinstance(node, QuantumSwitch) else None

    def neighbors(self, node_id: Hashable) -> Iterator[Hashable]:
        """Neighboring node identifiers of *node_id*."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return iter(self._adjacency[node_id])

    def incident_fibers(self, node_id: Hashable) -> List[OpticalFiber]:
        """All fibers with *node_id* as an endpoint."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return list(self._adjacency[node_id].values())

    def routing_snapshot(self) -> RoutingSnapshot:
        """The int-indexed routing view, built on first use and memoized.

        Shared with :meth:`copy` clones (copy-on-write).  Adding a node
        drops it; a fiber change or a row realignment only marks the
        endpoints' rows stale, and the next call rebuilds just those
        rows into a new snapshot, so one held by a clone never changes.
        """
        snapshot = self._routing
        if snapshot is not None:
            if self._stale_rows:
                snapshot = self._patched(snapshot)
            return snapshot
        ids = list(self._nodes)
        index = {node_id: i for i, node_id in enumerate(ids)}
        is_switch = [
            isinstance(self._nodes[node_id], QuantumSwitch) for node_id in ids
        ]
        # Reuse the stored key tuples rather than re-deriving them.
        key_of = {id(fiber): key for key, fiber in self._fibers.items()}
        rows = [
            [
                (index[other], key_of[id(fiber)], fiber.length)
                for other, fiber in self._adjacency[node_id].items()
            ]
            for node_id in ids
        ]
        switches = [(i, ids[i]) for i in range(len(ids)) if is_switch[i]]
        snapshot = RoutingSnapshot(ids, index, is_switch, switches, rows)
        self._routing = snapshot
        return snapshot

    def _patched(self, snapshot: RoutingSnapshot) -> RoutingSnapshot:
        """*snapshot* with the stale rows rebuilt from the adjacency."""
        index = snapshot.index
        rows = list(snapshot.rows)
        for node_id in self._stale_rows:
            rows[index[node_id]] = [
                (index[other], fiber.key, fiber.length)
                for other, fiber in self._adjacency[node_id].items()
            ]
        self._stale_rows.clear()
        snapshot = snapshot._replace(rows=rows)
        self._routing = snapshot
        return snapshot

    def degree(self, node_id: Hashable) -> int:
        """Number of fibers incident to *node_id*."""
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return len(self._adjacency[node_id])

    def average_degree(self) -> float:
        """Mean fiber degree over all nodes (0 for an empty network)."""
        if not self._nodes:
            return 0.0
        return 2.0 * len(self._fibers) / len(self._nodes)

    def fiber_between(
        self, u: Hashable, v: Hashable
    ) -> Optional[OpticalFiber]:
        """The fiber between *u* and *v*, or ``None``."""
        return self._fibers.get(fiber_key(u, v))

    def has_fiber(self, u: Hashable, v: Hashable) -> bool:
        return fiber_key(u, v) in self._fibers

    def link_success(self, u: Hashable, v: Hashable) -> float:
        """Per-attempt success probability of the link on fiber (u, v)."""
        fiber = self.fiber_between(u, v)
        if fiber is None:
            raise UnknownNodeError((u, v))
        return fiber.success_probability(self.params.alpha)

    # ------------------------------------------------------------------
    # Graph-level operations
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the fiber graph is connected (empty graph counts)."""
        if not self._nodes:
            return True
        seen: Set[Hashable] = set()
        stack = [next(iter(self._nodes))]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                nb for nb in self._adjacency[current] if nb not in seen
            )
        return len(seen) == len(self._nodes)

    def connected_components(self) -> List[Set[Hashable]]:
        """Connected components of the fiber graph."""
        remaining = set(self._nodes)
        components: List[Set[Hashable]] = []
        while remaining:
            seed = next(iter(remaining))
            component: Set[Hashable] = set()
            stack = [seed]
            while stack:
                current = stack.pop()
                if current in component:
                    continue
                component.add(current)
                stack.extend(
                    nb
                    for nb in self._adjacency[current]
                    if nb not in component
                )
            components.append(component)
            remaining -= component
        return components

    def fingerprint(self, scope: str = "full") -> str:
        """Stable content hash of this network (sha256 hex, memoized).

        Two networks with the same nodes, fibers, lengths, capacities
        and physical parameters share a fingerprint regardless of how
        (or in which process) they were built; any structural mutation
        changes it.  This replaces ad-hoc object-identity checks
        wherever "is this the same network?" actually means "same
        content?" — across processes, identity is meaningless but the
        fingerprint survives pickling and regeneration.

        Args:
            scope: ``"full"`` hashes everything (node kinds, positions,
                switch qubit budgets, fiber lengths and core counts,
                ``alpha``, ``swap_prob``).  ``"routing"`` hashes only
                what the Algorithm-1 channel search reads (node ids and
                kinds, fiber keys and lengths, ``alpha``,
                ``swap_prob``) — capacities are excluded because the
                search consumes them through the residual map, which the
                channel cache keys separately.

        The hash is memoized per instance and invalidated on mutation.
        """
        if scope not in ("full", "routing"):
            raise ValueError(f"unknown fingerprint scope {scope!r}")
        cached = self._fingerprints.get(scope)
        if cached is not None:
            return cached
        parts: List[str] = [
            f"alpha={self.params.alpha!r}",
            f"q={self.params.swap_prob!r}",
        ]
        for node_id in sorted(self._nodes, key=repr):
            node = self._nodes[node_id]
            entry = f"n|{node_id!r}|{node.kind.value}"
            if scope == "full":
                entry += f"|{node.position!r}"
                if isinstance(node, QuantumSwitch):
                    entry += f"|Q={node.qubits}"
            parts.append(entry)
        for key in sorted(self._fibers, key=repr):
            fiber = self._fibers[key]
            entry = f"e|{key!r}|{fiber.length!r}"
            if scope == "full":
                entry += f"|c={fiber.cores}"
            parts.append(entry)
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        self._fingerprints[scope] = digest
        return digest

    def copy(self) -> "QuantumNetwork":
        """Deep-enough copy: node/fiber objects are immutable and shared."""
        clone = QuantumNetwork(self.params)
        clone._nodes = dict(self._nodes)
        clone._fibers = dict(self._fibers)
        clone._adjacency = {
            node_id: dict(neighbors)
            for node_id, neighbors in self._adjacency.items()
        }
        # Content is identical, so memoized fingerprints and the
        # routing snapshot carry over.
        clone._fingerprints = dict(self._fingerprints)
        clone._routing = self._routing
        clone._stale_rows = set(self._stale_rows)
        return clone

    def with_switch_qubits(self, qubits: int) -> "QuantumNetwork":
        """Copy of this network with every switch's budget set to *qubits*."""
        clone = QuantumNetwork(self.params)
        for node in self._nodes.values():
            if isinstance(node, QuantumSwitch):
                clone.add_switch(node.id, node.position, qubits=qubits)
            else:
                clone.add_user(node.id, node.position)
        for fiber in self._fibers.values():
            clone.add_fiber(fiber.u, fiber.v, fiber.length, fiber.cores)
        return clone

    def with_params(self, params: NetworkParams) -> "QuantumNetwork":
        """Copy of this network under different physical parameters."""
        clone = self.copy()
        clone.params = params
        clone._fingerprints.clear()  # alpha / swap_prob are hashed
        return clone

    def residual_qubits(self) -> Dict[Hashable, int]:
        """Fresh per-switch qubit map ``{switch_id: Q}``."""
        return {s.id: s.qubits for s in self.switches}

    def to_networkx(self) -> nx.Graph:
        """Export to a ``networkx.Graph`` with node/edge attributes.

        Node attributes: ``kind`` ("user"/"switch"), ``position`` and, for
        switches, ``qubits``.  Edge attributes: ``length`` and ``p`` (the
        link success probability under this network's ``alpha``).
        """
        import networkx as nx

        graph = nx.Graph()
        for node in self._nodes.values():
            attrs = {"kind": node.kind.value, "position": node.position}
            if isinstance(node, QuantumSwitch):
                attrs["qubits"] = node.qubits
            graph.add_node(node.id, **attrs)
        for fiber in self._fibers.values():
            graph.add_edge(
                fiber.u,
                fiber.v,
                length=fiber.length,
                p=fiber.success_probability(self.params.alpha),
            )
        return graph

    def total_fiber_length(self) -> float:
        """Sum of all fiber lengths (km)."""
        return sum(f.length for f in self._fibers.values())

    def __repr__(self) -> str:
        return (
            f"QuantumNetwork(users={len(self.users)}, "
            f"switches={len(self.switches)}, fibers={len(self._fibers)}, "
            f"alpha={self.params.alpha}, q={self.params.swap_prob})"
        )
