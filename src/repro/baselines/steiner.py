"""Naive Steiner-tree baseline — the Sec. III-A cautionary tale.

The paper's key conceptual point (Sec. III-A, Fig. 4): classic graph
connectivity is *not* entanglement connectivity.  A Steiner minimal tree
connects the users with shared edges and free branching, but a quantum
switch can only *pairwise* swap — a degree-3 branch point at a switch
needs a channel per crossing user pair, and the switch's qubit budget
may not cover them.

This module implements the naive "classic graph theory" recipe so the
failure is measurable rather than rhetorical:

1. compute an approximate Steiner tree over the users on the fiber
   graph with the paper's log-rate weights (networkx's metric-closure
   2-approximation);
2. decompose it into user-pair channels: root the tree at a user and
   pair every user with the *next user* on the path toward the root, so
   the channels mirror exactly the Steiner tree's edges;
3. price the result honestly: Eq. (1)/(2) rates, and mark the solution
   infeasible if any switch's qubit budget is exceeded.

On capacity-tight networks this baseline frequently produces capacity
violations — quantified by :func:`steiner_violation_rate` and the
``steiner`` analysis in the benchmarks.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.core.rates import swap_log_rate
from repro.network.graph import QuantumNetwork
from repro.utils.rng import RngLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


def _weighted_graph(network: QuantumNetwork) -> nx.Graph:
    """Fiber graph with Algorithm-1 weights ``α·L − ln q`` per edge."""
    import networkx as nx

    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)
    graph = nx.Graph()
    for node in network.node_ids:
        graph.add_node(node)
    for fiber in network.fibers:
        weight = alpha * fiber.length + (
            minus_ln_q if not math.isinf(minus_ln_q) else 1e9
        )
        graph.add_edge(fiber.u, fiber.v, weight=weight)
    return graph


def steiner_tree_nodes(
    network: QuantumNetwork, users: List[Hashable]
) -> Optional[nx.Graph]:
    """Approximate Steiner tree over *users* (None if disconnected)."""
    import networkx as nx

    graph = _weighted_graph(network)
    try:
        from networkx.algorithms.approximation import steiner_tree
    except ImportError:  # pragma: no cover - networkx always ships it
        raise RuntimeError("networkx approximation module unavailable")
    subgraph = graph.subgraph(
        nx.node_connected_component(graph, users[0])
    )
    if any(user not in subgraph for user in users):
        return None
    return steiner_tree(subgraph, users, weight="weight")


def solve_steiner_naive(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    rng: RngLike = None,
) -> MUERPSolution:
    """The naive classic-graph baseline.

    Returns a solution whose channels trace the Steiner tree's paths.
    When the implied qubit usage exceeds any switch budget — the exact
    failure mode Sec. III-A describes — the instance is declared
    infeasible (rate 0), because the physical network cannot realise the
    classic tree.
    """
    user_list = resolve_users(network, users)
    tree = steiner_tree_nodes(network, user_list)
    if tree is None or tree.number_of_nodes() == 0:
        return infeasible_solution(user_list, "steiner_naive")

    # Decompose: walk from each non-root user toward the root, cutting a
    # channel at the first user encountered.
    root = user_list[0]
    parent: Dict[Hashable, Hashable] = {}
    order: List[Hashable] = []
    seen = {root}
    stack = [root]
    while stack:
        current = stack.pop()
        order.append(current)
        for neighbor in tree.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = current
                stack.append(neighbor)

    user_set = set(user_list)
    channels: List[Channel] = []
    for user in user_list:
        if user == root:
            continue
        path = [user]
        current = user
        while True:
            current = parent[current]
            path.append(current)
            if current in user_set:
                break
        if any(node in user_set for node in path[1:-1]):
            # A user strictly inside the walk: split there instead (the
            # loop above already stops at the first user, so this is
            # unreachable; kept as a guard).
            return infeasible_solution(user_list, "steiner_naive")
        try:
            channels.append(Channel.from_path(network, path))
        except ValueError:
            return infeasible_solution(user_list, "steiner_naive")

    solution = MUERPSolution(
        channels=tuple(channels),
        users=frozenset(user_list),
        method="steiner_naive",
        feasible=True,
    )
    # Honest pricing: if the classic tree overloads a switch, the
    # quantum network cannot realise it.
    idle = CapacityLedger.from_network(network)
    if not idle.can_reserve(solution.switch_usage()):
        return infeasible_solution(user_list, "steiner_naive")
    return solution


def steiner_violation_rate(
    network_factory,
    n_networks: int,
    seed: int = 0,
) -> float:
    """Fraction of random networks where the classic Steiner tree is
    physically unrealisable (capacity violation or decomposition
    failure) while Algorithm 3 still finds a tree.

    *network_factory(rng)* must return a fresh network per call.
    """
    from repro.core.conflict_free import solve_conflict_free
    from repro.utils.rng import spawn_rngs

    violations = 0
    comparable = 0
    for rng in spawn_rngs(seed, n_networks):
        network = network_factory(rng)
        ours = solve_conflict_free(network)
        if not ours.feasible:
            continue  # nothing to compare: the instance is just hard
        comparable += 1
        steiner = solve_steiner_naive(network)
        if not steiner.feasible:
            violations += 1
    if comparable == 0:
        return 0.0
    return violations / comparable
