"""Dynamic maintenance of a served entanglement tree under deltas.

A served MUERP solution is a tree of user-to-user channels.  When a
structural event fires, recomputing the whole tree wastes nearly all
work if the event touched at most one channel — the regime the dynamic
multi-tree literature (Yang et al., arXiv:2408.06207) identifies as the
common case.  This module implements the classify-then-repair ladder:

====================  ===========================================
break count           classification / action
====================  ===========================================
0 channels broken     **tree-disjoint** — no-op, the tree stands
1 channel broken      **replaceable** — splice one reconnecting
                      channel found by a neighborhood-bounded
                      search (escalate if none verifies)
>= 2 channels broken  **structural** — full re-solve
====================  ===========================================

A splice is a region-masked repair: it runs the steps of
:func:`repro.extensions.recovery.repair_solution` (shared in
``recovery._reconnect_kept``) on a ledger where switches farther than
``radius`` fiber hops from the broken channel's path
(:func:`~repro.extensions.recovery.region_of`) get zero free qubits, so
it can only relay through the local neighborhood (global repairs belong
to escalation).  Both the incremental router and the from-scratch
reference run exactly this policy code — byte-equality between the two
modes then exercises the caching/delta machinery, not policy luck.
"""

from __future__ import annotations

from typing import (
    Hashable,
    Iterable,
    Optional,
    Tuple,
)

from repro.core.ledger import CapacityLedger
from repro.core.problem import Channel, MUERPSolution
from repro.extensions.recovery import (
    _reconnect_kept,
    channel_broken,
    region_of,
)
from repro.network.link import fiber_key

__all__ = [
    "DISJOINT",
    "REPLACEABLE",
    "STRUCTURAL",
    "broken_channels",
    "classify_break",
    "splice_solution",
]

DISJOINT = "disjoint"
REPLACEABLE = "replaceable"
STRUCTURAL = "structural"


def broken_channels(
    solution: MUERPSolution,
    dead_fibers: Iterable[Tuple[Hashable, Hashable]] = (),
    dead_switches: Iterable[Hashable] = (),
) -> Tuple[Channel, ...]:
    """The channels of *solution* that use a failed element (in order)."""
    fibers = {fiber_key(u, v) for u, v in dead_fibers}
    switches = set(dead_switches)
    return tuple(
        c
        for c in solution.channels
        if channel_broken(c, fibers, switches)
    )


def classify_break(
    solution: MUERPSolution,
    dead_fibers: Iterable[Tuple[Hashable, Hashable]] = (),
    dead_switches: Iterable[Hashable] = (),
) -> Tuple[str, Tuple[Channel, ...]]:
    """Classify a structural event against a served tree.

    Returns ``(classification, broken_channels)`` with the
    classification one of :data:`DISJOINT`, :data:`REPLACEABLE`,
    :data:`STRUCTURAL`.
    """
    broken = broken_channels(solution, dead_fibers, dead_switches)
    if not broken:
        return DISJOINT, broken
    if len(broken) == 1:
        return REPLACEABLE, broken
    return STRUCTURAL, broken


def splice_solution(
    damaged,
    solution: MUERPSolution,
    broken: Channel,
    residual: Optional[CapacityLedger] = None,
    radius: int = 2,
) -> Optional[MUERPSolution]:
    """Replace one broken channel by a neighborhood-bounded search.

    Args:
        damaged: The post-event topology (failed elements removed).
        solution: The served tree, exactly one channel of which is
            *broken*.
        broken: The casualty channel.
        residual: Ledger whose free qubits *include* this tree's own
            reservations (the same contract as :func:`repro.extensions.
            recovery.repair_solution`), which the splice only reads: it
            spends on a copy masked to the region.  Defaults to the
            damaged network's full budget.
        radius: Fiber-hop radius of the search region around the broken
            channel's path.

    Returns:
        The spliced tree (kept channels + one replacement, in
        deterministic order), or ``None`` when *broken* is not exactly
        one channel of the tree, the kept channels do not leave exactly
        two user components, or no replacement exists inside the region
        — the caller escalates to a full re-solve.
    """
    kept = [c for c in solution.channels if c != broken]
    if len(kept) != len(solution.channels) - 1:
        return None  # broken channel not in (or duplicated in) the tree
    if residual is None:
        residual = CapacityLedger.from_network(damaged)
    region = region_of(damaged, broken.path, radius)
    masked = CapacityLedger(
        {
            switch: (residual.available(switch) if switch in region else 0)
            for switch in damaged.switch_ids
        }
    )
    added, n_components = _reconnect_kept(
        damaged, solution.users, kept, masked
    )
    # A reconnect from k components adds k - 1 channels: one added means
    # a single-edge break of a spanning tree, mended inside the region.
    if n_components > 1 or len(added) != 1:
        return None
    return MUERPSolution(
        channels=tuple(kept) + tuple(added),
        users=solution.users,
        method=_spliced_method(solution.method),
        feasible=True,
        extra_log_rate=solution.extra_log_rate,
    )


def _spliced_method(method: str) -> str:
    """Tag a method name as spliced exactly once (idempotent)."""
    return method if method.endswith("+splice") else method + "+splice"
