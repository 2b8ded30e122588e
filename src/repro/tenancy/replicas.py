"""k-redundant tree planning and mid-service failover.

One admitted group is served by up to *k* trees at once — a serving
primary plus hot standbys — all held on the shared
:class:`~repro.core.ledger.CapacityLedger`, the standbys planned in a
single transaction (no partial replica sets can leak qubits).  Standbys
prefer fiber-disjoint routes (planned on a view with the prior
replicas' fibers removed, the multi-tree construction of Yang et al.,
arXiv:2408.06207) and fall back to overlapping routes when
disjointness is infeasible.

Failover is the cheap rung below the incremental repair ladder
(:func:`repro.extensions.recovery.repair_solution`): a fault that
breaks only some replicas promotes a surviving standby *in place* —
no re-solve, no degradation — and the structural ladder is invoked
only once every replica is dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.ledger import CapacityLedger
from repro.core.problem import MUERPSolution
from repro.extensions.recovery import apply_failures, channel_broken
from repro.network.graph import QuantumNetwork
from repro.network.link import fiber_key

#: Failover events a replica set can report for one fault signature.
INTACT = "intact"  #: no replica touched
PRUNED = "pruned"  #: standby(s) died; the serving tree is fine
FAILOVER = "failover"  #: serving tree died; a standby was promoted
EXHAUSTED = "exhausted"  #: every replica died; escalate to repair


@dataclass(frozen=True)
class ReplicationPolicy:
    """How many trees to serve each group with, and how to place them.

    Attributes:
        k: Target replica count (1 = no redundancy; the serving layer
            then behaves exactly like the plain scheduler).
        prefer_disjoint: Plan each standby on a view with the prior
            replicas' fibers removed, so one fiber cut cannot kill two
            replicas.
        allow_overlap: When a disjoint standby is infeasible, accept an
            overlapping route instead of going without (best effort).
    """

    k: int = 2
    prefer_disjoint: bool = True
    allow_overlap: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class ReplicaSet:
    """The live replica state of one in-service reservation.

    ``usages[i]`` is the qubits replica ``i`` pinned, so releasing a
    replica's usage entry returns exactly what it reserved.
    """

    replicas: List[MUERPSolution]
    usages: List[Dict[Hashable, int]]
    serving: int = 0
    failovers: int = 0
    shortfall: int = 0  #: replicas requested but not plannable

    @property
    def k(self) -> int:
        return len(self.replicas)

    @property
    def serving_solution(self) -> MUERPSolution:
        return self.replicas[self.serving]

    @property
    def serving_usage(self) -> Dict[Hashable, int]:
        return self.usages[self.serving]

    @property
    def standby_count(self) -> int:
        return len(self.replicas) - 1

    def total_usage(self) -> Dict[Hashable, int]:
        usage: Dict[Hashable, int] = {}
        for entry in self.usages:
            for switch, qubits in entry.items():
                usage[switch] = usage.get(switch, 0) + qubits
        return usage

    def broken_indices(
        self,
        cuts: Set[Tuple[Hashable, Hashable]],
        darks: Set[Hashable],
    ) -> List[int]:
        return [
            i
            for i, solution in enumerate(self.replicas)
            if any(channel_broken(c, cuts, darks) for c in solution.channels)
        ]

    def handle_faults(
        self,
        cuts: Set[Tuple[Hashable, Hashable]],
        darks: Set[Hashable],
    ) -> Tuple[str, List[Dict[Hashable, int]]]:
        """Absorb one fault signature; returns ``(event, released)``.

        *released* lists the usage dicts of every replica dropped from
        the set — the caller must return them to the ledger.  On
        :data:`EXHAUSTED` the (broken) serving replica is *kept*: its
        reservation stays live so the repair ladder can swap it
        atomically, exactly like an unreplicated reservation.
        """
        broken = set(self.broken_indices(cuts, darks))
        if not broken:
            return INTACT, []
        survivors = [i for i in range(len(self.replicas)) if i not in broken]
        if self.serving in broken and not survivors:
            # Every tree is dead: shed the standbys, keep the serving
            # reservation for the caller's repair/degrade/abandon path.
            released = [
                self.usages[i]
                for i in sorted(broken)
                if i != self.serving
            ]
            keep = self.serving
            self.replicas = [self.replicas[keep]]
            self.usages = [self.usages[keep]]
            self.serving = 0
            return EXHAUSTED, released
        event = PRUNED
        if self.serving in broken:
            event = FAILOVER
            self.failovers += 1
        released = [self.usages[i] for i in sorted(broken)]
        old_serving = self.serving
        new_serving_old_index = (
            old_serving if old_serving in survivors else survivors[0]
        )
        self.replicas = [self.replicas[i] for i in survivors]
        self.usages = [self.usages[i] for i in survivors]
        self.serving = survivors.index(new_serving_old_index)
        return event, released


def _replica_fibers(
    replicas: List[MUERPSolution],
) -> Set[Tuple[Hashable, Hashable]]:
    used: Set[Tuple[Hashable, Hashable]] = set()
    for solution in replicas:
        for channel in solution.channels:
            for u, v in zip(channel.path, channel.path[1:]):
                used.add(fiber_key(u, v))
    return used


def plan_replica_set(
    network: QuantumNetwork,
    primary: MUERPSolution,
    ledger: CapacityLedger,
    policy: ReplicationPolicy,
    route: Callable[[QuantumNetwork], Optional[MUERPSolution]],
) -> ReplicaSet:
    """Plan up to ``k−1`` standbys beside *primary*, atomically.

    The caller already holds *primary*'s qubits on *ledger*.  *route*
    is called with the view each standby must be planned on
    (fiber-disjoint from the replicas so far when the policy asks for
    it); it must route on *ledger* itself and hold the tree it returns,
    as the scheduler's ``_Run.route`` does.  Planning is best effort:
    an unplannable standby is counted in :attr:`ReplicaSet.shortfall`
    rather than failing the admission.  Any exception inside rolls
    every standby back (the ledger transaction).
    """
    rset = ReplicaSet(replicas=[primary], usages=[primary.switch_usage()])
    with ledger.transaction():
        for _ in range(policy.k - 1):
            view = network
            if policy.prefer_disjoint:
                used = _replica_fibers(rset.replicas)
                view = apply_failures(network, used)
            extra = route(view)
            if (
                extra is None
                and view is not network
                and policy.allow_overlap
            ):
                extra = route(network)
            if extra is None:
                rset.shortfall += 1
                break
            rset.replicas.append(extra)
            rset.usages.append(extra.switch_usage())
    return rset
