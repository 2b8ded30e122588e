"""Problem and solution objects for the MUERP.

The MUERP (Sec. II-D): route channels so that the quantum users ``U``
are spanned by an *entanglement tree* — users are vertices, quantum
channels are edges — maximizing the product of channel rates (Eq. 2)
while no switch carries more than ``⌊Q_r / 2⌋`` channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.rates import channel_log_rate, tree_log_rate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import QuantumNetwork


@dataclass(frozen=True)
class Channel:
    """A quantum channel: a width-1 path between two users via switches.

    Attributes:
        path: Node-id sequence ``(user, switch, …, switch, user)``.
        log_rate: Natural log of the channel's entanglement rate (Eq. 1).
    """

    path: Tuple[Hashable, ...]
    log_rate: float

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(f"channel path too short: {self.path!r}")
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"channel path revisits a node: {self.path!r}")

    @classmethod
    def from_path(
        cls, network: "QuantumNetwork", path: Sequence[Hashable]
    ) -> "Channel":
        """Build a channel from a node path, computing its rate (Eq. 1)."""
        return cls(tuple(path), channel_log_rate(network, path))

    @property
    def rate(self) -> float:
        """Entanglement rate in linear space."""
        return math.exp(self.log_rate)

    @property
    def endpoints(self) -> Tuple[Hashable, Hashable]:
        """The two quantum users this channel entangles."""
        return self.path[0], self.path[-1]

    @property
    def endpoint_key(self) -> FrozenSet[Hashable]:
        """Order-insensitive endpoint pair (for dict keys)."""
        return frozenset((self.path[0], self.path[-1]))

    @property
    def switches(self) -> Tuple[Hashable, ...]:
        """Intermediate nodes (all switches by construction)."""
        return self.path[1:-1]

    @property
    def n_links(self) -> int:
        """Number of quantum links ``l`` (path edges)."""
        return len(self.path) - 1

    @property
    def n_swaps(self) -> int:
        """Number of BSM swaps performed: ``l - 1``."""
        return self.n_links - 1

    def reversed(self) -> "Channel":
        """The same channel traversed the other way."""
        return Channel(tuple(reversed(self.path)), self.log_rate)

    def uses_switch(self, switch_id: Hashable) -> bool:
        return switch_id in self.path[1:-1]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = " - ".join(str(n) for n in self.path)
        return f"Channel[{arrow}] rate={self.rate:.3e}"


def channel_sort_key(channel: Channel) -> Tuple[float, int, str]:
    """Descending-rate ordering with a deterministic tie-break.

    Higher rate first; ties broken by fewer links, then lexicographic
    path representation, so runs are reproducible across Python hash
    randomization.
    """
    return (-channel.log_rate, channel.n_links, repr(channel.path))


@dataclass(frozen=True)
class MUERPSolution:
    """An entanglement tree (or a recorded failure to build one).

    Attributes:
        channels: The selected quantum channels.
        users: The quantum users the tree is meant to span.
        method: Name of the algorithm that produced this solution.
        feasible: ``False`` when the algorithm could not span the users;
            the paper's metric then counts the entanglement rate as 0.
        extra_log_rate: Additional log-probability factors beyond the
            channels' Eq. (1) rates — e.g. N-FUSION's final GHZ-fusion
            success probability.  0 for pure BSM-tree solutions.
    """

    channels: Tuple[Channel, ...]
    users: FrozenSet[Hashable]
    method: str = "unknown"
    feasible: bool = True
    extra_log_rate: float = 0.0

    @property
    def log_rate(self) -> float:
        """Log of Eq. (2) (plus any extra factors); ``-inf`` if infeasible."""
        if not self.feasible:
            return -math.inf
        return tree_log_rate(c.log_rate for c in self.channels) + self.extra_log_rate

    @property
    def rate(self) -> float:
        """Entanglement rate of the tree (0 when infeasible)."""
        if not self.feasible:
            return 0.0
        return math.exp(self.log_rate)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def switch_usage(self) -> Dict[Hashable, int]:
        """Qubits consumed per switch: 2 per transit channel (Def. 3)."""
        return channel_usage(self.channels)

    def user_adjacency(self) -> Dict[Hashable, List[Hashable]]:
        """Adjacency of the user-level entanglement tree."""
        adjacency: Dict[Hashable, List[Hashable]] = {u: [] for u in self.users}
        for channel in self.channels:
            a, b = channel.endpoints
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        return adjacency

    def total_links(self) -> int:
        """Total number of quantum links across all channels."""
        return sum(c.n_links for c in self.channels)

    def total_swaps(self) -> int:
        """Total number of BSM swaps across all channels."""
        return sum(c.n_swaps for c in self.channels)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.feasible:
            return f"MUERPSolution[{self.method}] INFEASIBLE"
        return (
            f"MUERPSolution[{self.method}] rate={self.rate:.3e} "
            f"channels={self.n_channels}"
        )


def channel_usage(channels: Iterable[Channel]) -> Dict[Hashable, int]:
    """Qubits *channels* pin per switch: 2 per transit (Def. 3)."""
    usage: Dict[Hashable, int] = {}
    for channel in channels:
        for switch in channel.switches:
            usage[switch] = usage.get(switch, 0) + 2
    return usage


def infeasible_solution(
    users: Iterable[Hashable], method: str
) -> MUERPSolution:
    """The canonical zero-rate failure value used by all algorithms."""
    return MUERPSolution(
        channels=(), users=frozenset(users), method=method, feasible=False
    )


def resolve_users(
    network: "QuantumNetwork", users: Optional[Iterable[Hashable]]
) -> List[Hashable]:
    """Normalize a user-set argument: default to all network users.

    Validates that every requested id exists and is a quantum user and
    that at least two users are present (single-user "entanglement" is
    meaningless in the model).
    """
    if users is None:
        resolved = network.user_ids
    else:
        resolved = list(users)
        for user in resolved:
            if not network.is_user(user):
                raise ValueError(f"{user!r} is not a quantum user")
        if len(set(resolved)) != len(resolved):
            raise ValueError("duplicate users in request")
    if len(resolved) < 2:
        raise ValueError(f"need at least 2 users, got {len(resolved)}")
    return resolved
