"""K-best channels between a user pair (Yen's algorithm on rates).

Algorithm 1 returns the single best channel; several consumers want the
runner-ups too:

* the fidelity-aware extension needs alternatives when the best channel
  misses the fidelity floor;
* operators planning maintenance want to know how much rate the second-
  best channel loses (channel diversity);
* the resilience analysis ranks backup routes.

This is Yen's k-shortest-paths transplanted to the paper's weight space
(`α·L − ln q` per hop, switches-only interiors, residual-capacity
filtering), returning loopless channels in descending rate order.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.channel import find_best_channel
from repro.core.ledger import CapacityLedger
from repro.core.optimal import channel_sort_key
from repro.core.problem import Channel
from repro.network.graph import QuantumNetwork
from repro.network.link import fiber_key


def k_best_channels(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    k: int,
    residual: Optional[CapacityLedger] = None,
) -> List[Channel]:
    """Up to *k* best loopless channels between two users.

    Returns channels in descending entanglement-rate order; fewer than
    *k* when the network doesn't admit that many distinct channels.

    Yen's construction: the best channel seeds the list; each candidate
    is derived by forcing a deviation off some prefix (spur node) of an
    already-accepted channel, with the conflicting fibers banned and the
    prefix's interior switches excluded: each spur searches a fork of
    *residual* (``None``: the idle network) with every free qubit of
    those switches reserved.  *residual* itself is only read.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if residual is None:
        residual = CapacityLedger.from_network(network)
    best = find_best_channel(network, source, target, residual)
    if best is None:
        return []
    accepted: List[Channel] = [best]
    candidates: Dict[Tuple[Hashable, ...], Channel] = {}

    while len(accepted) < k:
        previous = accepted[-1]
        for spur_index in range(len(previous.path) - 1):
            root = previous.path[: spur_index + 1]
            spur = previous.path[spur_index]

            # Ban the outgoing fiber each accepted channel with the same
            # prefix takes from the spur node.
            banned: Set[Tuple[Hashable, Hashable]] = set()
            for channel in accepted:
                if channel.path[: spur_index + 1] == root and len(
                    channel.path
                ) > spur_index + 1:
                    banned.add(
                        fiber_key(
                            channel.path[spur_index],
                            channel.path[spur_index + 1],
                        )
                    )
            # Exclude the root's interior nodes from the spur search so
            # the total path stays loopless: spend all their qubits.
            spur_residual = residual.fork()
            spur_residual.reserve(
                {
                    node: spur_residual.available(node)
                    for node in root[1:-1]
                }
            )

            # The spur node itself may be the source (a user) or a
            # switch; both are legal search sources only if user — for
            # switch spurs we search from the source with the full root
            # forced, which Yen handles by searching spur→target and
            # gluing.  Our search API only starts at users, so emulate
            # by searching source→target with root-interior banned and
            # requiring the root as prefix via fiber bans; simplest
            # correct approach: only spur at user nodes (index 0) plus
            # glue for switch spurs via prefix re-validation below.
            if spur_index == 0:
                alternative = find_best_channel(
                    network, source, target, spur_residual, banned
                )
                if alternative is not None:
                    candidates.setdefault(alternative.path, alternative)
            else:
                glued = _spur_via_prefix(
                    network, root, target, spur_residual, banned
                )
                if glued is not None:
                    candidates.setdefault(glued.path, glued)

        fresh = [
            channel
            for path, channel in candidates.items()
            if all(path != existing.path for existing in accepted)
        ]
        if not fresh:
            break
        fresh.sort(key=channel_sort_key)
        accepted.append(fresh[0])
        candidates.pop(fresh[0].path)
    return accepted


def _spur_via_prefix(
    network: QuantumNetwork,
    root: Tuple[Hashable, ...],
    target: Hashable,
    residual: CapacityLedger,
    banned: Set[Tuple[Hashable, Hashable]],
) -> Optional[Channel]:
    """Best channel extending *root* (source…spur) to *target*."""
    from repro.core.channel import dijkstra, trace_path
    from repro.core.rates import channel_log_rate

    spur = root[-1]
    # Classic Yen: search spur → target with the root's interior nodes
    # removed (the caller spent their qubits) and the deviation
    # fibers banned, then glue root[:-1] + spur-path.  The spur is a
    # switch, so the search starts in relay mode; its own swap cost is a
    # constant offset over all spur paths and cannot change the argmax.
    dist, prev = dijkstra(
        network,
        spur,
        residual,
        banned,
        allow_switch_source=True,
    )
    if target not in dist:
        return None
    spur_path = trace_path(prev, spur, target)
    glued = root[:-1] + spur_path
    if len(set(glued)) != len(glued):
        return None  # defensive: gluing must stay loopless
    return Channel(glued, channel_log_rate(network, glued))


def channel_diversity(
    network: QuantumNetwork,
    source: Hashable,
    target: Hashable,
    k: int = 2,
) -> float:
    """Rate ratio of the k-th best channel to the best (0 if absent).

    A diversity of ~1 means failures are cheap to route around; ~0 means
    the pair depends on a single good channel (a "critical" structure in
    the paper's Fig. 7(b) terminology).
    """
    channels = k_best_channels(network, source, target, k)
    if len(channels) < k:
        return 0.0
    return channels[k - 1].rate / channels[0].rate
