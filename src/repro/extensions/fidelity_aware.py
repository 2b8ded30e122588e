"""Fidelity-aware entanglement routing (the paper's stated extension).

The base model optimizes the entanglement *rate* only; real applications
also need the delivered pairs to be high-*fidelity*.  This module adds:

* a :class:`FidelityModel` mapping fiber length to fresh-link Werner
  fidelity and composing fidelities through BSM swaps
  (``F' = F₁F₂ + (1-F₁)(1-F₂)/3``, see :mod:`repro.quantum.fidelity`);
* :func:`pareto_channels` — a label-correcting search computing the
  Pareto frontier of (rate, fidelity) channels between two users.
  Correctness rests on the swap rule being monotone in the upstream
  fidelity whenever link fidelities exceed 1/4, so dominated prefixes
  can never complete into non-dominated channels;
* :func:`solve_fidelity_prim` — Algorithm 4 with a minimum end-to-end
  fidelity constraint per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.ledger import CapacityLedger
from repro.core.optimal import channel_sort_key
from repro.core.prim_based import choose_start
from repro.core.problem import (
    Channel,
    MUERPSolution,
    infeasible_solution,
    resolve_users,
)
from repro.core.rates import swap_log_rate
from repro.network.graph import QuantumNetwork
from repro.quantum.fidelity import (
    link_fidelity_from_length,
    werner_fidelity_after_swap,
)
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class FidelityModel:
    """Physical fidelity model for links and swaps.

    Attributes:
        base_fidelity: Fidelity of a zero-length fresh link (F₀).
        decay_per_km: Exponential decoherence constant λ of
            ``F(L) = 1/4 + (F₀ - 1/4)·exp(-λL)``.
    """

    base_fidelity: float = 0.99
    decay_per_km: float = 2e-5

    def link_fidelity(self, length: float) -> float:
        """Werner fidelity of a fresh link of a given length."""
        return link_fidelity_from_length(
            length, self.decay_per_km, self.base_fidelity
        )

    def extend(self, fidelity: float, link_fidelity: float) -> float:
        """Fidelity after swapping a channel prefix with one more link."""
        return werner_fidelity_after_swap(fidelity, link_fidelity)


@dataclass(frozen=True)
class ParetoChannel:
    """A channel annotated with its end-to-end Werner fidelity."""

    channel: Channel
    fidelity: float

    @property
    def rate(self) -> float:
        return self.channel.rate


def channel_fidelity(
    network: QuantumNetwork,
    path: Sequence[Hashable],
    model: Optional[FidelityModel] = None,
) -> float:
    """End-to-end Werner fidelity of a channel path."""
    model = model or FidelityModel()
    fidelities = []
    for u, v in zip(path, path[1:]):
        fiber = network.fiber_between(u, v)
        if fiber is None:
            raise ValueError(f"no fiber between {u!r} and {v!r}")
        fidelities.append(model.link_fidelity(fiber.length))
    result = fidelities[0]
    for fidelity in fidelities[1:]:
        result = model.extend(result, fidelity)
    return result


@dataclass
class _Label:
    """A (cost, fidelity) search label with its path."""

    cost: float  # accumulated -log rate weight
    fidelity: float
    path: Tuple[Hashable, ...]


def _dominates(a: _Label, b: _Label, tolerance: float = 1e-12) -> bool:
    """Whether label *a* weakly dominates *b* (cheaper and higher-F)."""
    return (
        a.cost <= b.cost + tolerance and a.fidelity >= b.fidelity - tolerance
    )


def pareto_channels(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    model: Optional[FidelityModel] = None,
    residual: Optional[CapacityLedger] = None,
    max_labels_per_node: int = 32,
) -> List[ParetoChannel]:
    """Pareto frontier of (rate, fidelity) channels between two users.

    Label-correcting search: each node keeps its non-dominated
    (cost, fidelity) labels; extending a label over a fiber adds the
    Algorithm-1 weight to the cost and applies the Werner swap rule to
    the fidelity.  ``max_labels_per_node`` caps the frontier per node
    (keeping the cheapest labels) to bound worst-case blowup.  Switches
    relay only while they hold 2 free qubits on *residual* (``None``:
    the idle network), read through the ledger's blocked-switch mask.

    Returns the frontier at *target*, sorted by descending rate.
    """
    if source == target:
        raise ValueError("source and target must differ")
    if not network.is_user(source) or not network.is_user(target):
        raise ValueError("source and target must be quantum users")
    model = model or FidelityModel()
    if residual is None:
        residual = CapacityLedger.from_network(network)
    graph = network.routing_snapshot()
    blocked = residual.blocked(graph)
    index = graph.index
    alpha = network.params.alpha
    minus_ln_q = -swap_log_rate(network.params.swap_prob)

    labels: Dict[Hashable, List[_Label]] = {
        source: [_Label(0.0, 1.0, (source,))]
    }
    queue: List[_Label] = list(labels[source])

    while queue:
        label = queue.pop()
        node = label.path[-1]
        if node == target:
            continue
        if node != source:
            if not network.is_switch(node) or blocked[index[node]]:
                continue
            if math.isinf(minus_ln_q):
                continue
        swap_cost = 0.0 if node == source else minus_ln_q
        for fiber in network.incident_fibers(node):
            neighbor = fiber.other_end(node)
            if neighbor in label.path:
                continue
            if neighbor != target and not network.is_switch(neighbor):
                continue
            if blocked[index[neighbor]]:
                continue
            link_f = model.link_fidelity(fiber.length)
            new_fidelity = (
                link_f
                if len(label.path) == 1
                else model.extend(label.fidelity, link_f)
            )
            candidate = _Label(
                cost=label.cost + swap_cost + alpha * fiber.length,
                fidelity=new_fidelity,
                path=label.path + (neighbor,),
            )
            bucket = labels.setdefault(neighbor, [])
            if any(_dominates(existing, candidate) for existing in bucket):
                continue
            bucket[:] = [
                existing
                for existing in bucket
                if not _dominates(candidate, existing)
            ]
            bucket.append(candidate)
            if len(bucket) > max_labels_per_node:
                bucket.sort(key=lambda l: l.cost)
                del bucket[max_labels_per_node:]
                if candidate not in bucket:
                    continue
            if neighbor != target:
                queue.append(candidate)

    results = []
    for label in labels.get(target, []):
        channel = Channel.from_path(network, label.path)
        results.append(ParetoChannel(channel=channel, fidelity=label.fidelity))
    results.sort(key=lambda pc: -pc.channel.log_rate)
    return results


def find_best_channel_with_fidelity(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    min_fidelity: float,
    model: Optional[FidelityModel] = None,
    residual: Optional[CapacityLedger] = None,
) -> Optional[ParetoChannel]:
    """Max-rate channel whose end-to-end fidelity meets *min_fidelity*."""
    frontier = pareto_channels(network, source, target, model, residual)
    for candidate in frontier:  # sorted by descending rate
        if candidate.fidelity >= min_fidelity:
            return candidate
    return None


def solve_fidelity_prim(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    min_fidelity: float = 0.8,
    model: Optional[FidelityModel] = None,
    start: Optional[Hashable] = None,
    rng: RngLike = None,
) -> MUERPSolution:
    """Algorithm 4 with a per-channel end-to-end fidelity constraint.

    Identical growth strategy to :func:`repro.core.solve_prim`, but each
    candidate channel is drawn from the fidelity-feasible part of the
    Pareto frontier.  Infeasible (rate 0) when no fidelity-compliant
    spanning tree exists within switch budgets.
    """
    user_list = resolve_users(network, users)
    model = model or FidelityModel()
    start = choose_start(user_list, start, rng)
    connected = [start]
    remaining = [u for u in user_list if u != start]
    ledger = CapacityLedger.from_network(network)
    selected: List[Channel] = []

    while remaining:
        best: Optional[Channel] = None
        for source in connected:
            for target in remaining:
                candidate = find_best_channel_with_fidelity(
                    network, source, target, min_fidelity, model, ledger
                )
                if candidate is not None and (
                    best is None
                    or channel_sort_key(candidate.channel)
                    < channel_sort_key(best)
                ):
                    best = candidate.channel
        if best is None:
            return infeasible_solution(user_list, "fidelity_prim")
        ledger.reserve_channel(best)
        newcomer = best.endpoints[1]
        remaining.remove(newcomer)
        connected.append(newcomer)
        selected.append(best)

    return MUERPSolution(
        channels=tuple(selected),
        users=frozenset(user_list),
        method="fidelity_prim",
        feasible=True,
    )
