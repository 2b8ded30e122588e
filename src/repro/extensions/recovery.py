"""Failure recovery: repair a routed tree after fiber or switch loss.

The paper's edge-removal study (Fig. 7b) re-solves from scratch after
every removal.  An operational network wants *incremental repair*: when
a fiber is cut or a switch goes dark, keep every unaffected channel
(their qubits stay reserved) and re-route only the broken ones with the
remaining capacity.

:func:`repair_solution` implements that: it classifies channels into
survivors and casualties (:func:`channel_broken`), charges only the
survivors to the caller's :class:`~repro.core.ledger.CapacityLedger`,
and reconnects the split user components on it with Algorithm 3's
Phase-2 loop (:func:`repro.core.conflict_free.reconnect`).  The result
is either a valid repaired tree, held there, or an infeasible marker
(rolled back) when the damage is fatal.  A splice (:func:`repro.
incremental.tree.splice_solution`) is this repair on a ledger masked to
:func:`region_of`.

:func:`recover` is the one ladder every serving path shares: repair,
then an optional replan, then degradation to the largest still-spanned
user subset.  It returns only a tree that passed the caller's audit
against the *damaged* view, and records every audit in the report.
"""

from __future__ import annotations

import logging
import math
from contextlib import nullcontext as _nullcontext, suppress
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.conflict_free import reconnect
from repro.core.ledger import CapacityLedger
from repro.core.problem import (
    Channel,
    MUERPSolution,
    channel_usage,
    infeasible_solution,
)
from repro.network.graph import QuantumNetwork
from repro.network.link import fiber_key
from repro.utils.unionfind import UnionFind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.report import ResilienceReport
    from repro.verify.verifier import SolutionVerifier

logger = logging.getLogger("repro.extensions.recovery")


class _Unserved(Exception):
    """Internal control flow: roll back a repair that cannot serve."""


#: The :func:`recover` step that produced an installed tree.
STEP_REPAIR = "repair"
STEP_REPLAN = "replan"
STEP_DEGRADE = "degrade"


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair attempt."""

    solution: MUERPSolution
    kept_channels: Tuple[Channel, ...]
    broken_channels: Tuple[Channel, ...]
    new_channels: Tuple[Channel, ...]

    @property
    def repaired(self) -> bool:
        return self.solution.feasible

    @property
    def rate_retention(self) -> float:
        """New rate / old rate (old rate inferred from kept + broken)."""
        old_log = sum(
            c.log_rate for c in self.kept_channels + self.broken_channels
        )
        if not self.solution.feasible:
            return 0.0
        return math.exp(self.solution.log_rate - old_log)


def apply_failures(
    network: QuantumNetwork,
    failed_fibers: Iterable[Tuple[Hashable, Hashable]] = (),
    failed_switches: Iterable[Hashable] = (),
) -> QuantumNetwork:
    """A copy of *network* with the given fibers/switches unusable.

    Failed switches stay in the graph but lose all incident fibers and
    their qubits (a dark node); failed fibers are simply removed.

    When a :class:`~repro.incremental.delta.DeltaBus` is active, the
    copy's mutations run under :meth:`~repro.incremental.delta.DeltaBus.
    suspended` — building a damaged *view* is bookkeeping, not a new
    physical change, so it must neither re-publish delta events nor
    re-invalidate cache regions the original fault already handled.
    """
    from repro.incremental import delta as incremental_delta

    bus = incremental_delta.active()
    guard = bus.suspended() if bus is not None else _nullcontext()
    with guard:
        damaged = network.copy()
        for u, v in failed_fibers:
            if damaged.has_fiber(u, v):
                damaged.remove_fiber(u, v)
        dead = set(failed_switches)
        for switch in dead:
            if switch not in damaged or not damaged.is_switch(switch):
                raise ValueError(f"{switch!r} is not a switch")
            for fiber in list(damaged.incident_fibers(switch)):
                damaged.remove_fiber(fiber.u, fiber.v)
    return damaged


def repair_solution(
    network: QuantumNetwork,
    solution: MUERPSolution,
    failed_fibers: Iterable[Tuple[Hashable, Hashable]] = (),
    failed_switches: Iterable[Hashable] = (),
    residual: Optional[CapacityLedger] = None,
    damaged: Optional[QuantumNetwork] = None,
) -> RepairReport:
    """Incrementally repair *solution* after the given failures.

    Args:
        network: The *original* network the solution was routed on.
        solution: A feasible routed tree.
        failed_fibers: Endpoint pairs of cut fibers.
        failed_switches: Ids of dark switches.
        residual: Optional :class:`~repro.core.ledger.CapacityLedger`
            whose free qubits *include* this solution's own
            reservations.  When given, replacement channels are routed
            within it — the contract the online scheduler relies on so
            repairs never overbook switches shared with other in-flight
            requests.  A feasible repair (an unbroken tree too) leaves
            its tree held on *residual*, kept channels charged capped;
            an infeasible one rolls back.  Defaults to the damaged
            network's full budget (single-tenant repair).
        damaged: Optional pre-built damaged view (exactly what
            :func:`apply_failures` over the same failure sets would
            return).  Callers that already maintain one — the online
            scheduler rebuilds it once per fault signature — pass it to
            skip an O(V + E) topology copy per repair.

    Returns:
        A :class:`RepairReport`; its solution is infeasible when the
        surviving capacity cannot reconnect the users.
    """
    if not solution.feasible:
        raise ValueError("cannot repair an infeasible solution")
    dead_fibers: Set[Tuple[Hashable, Hashable]] = {
        fiber_key(u, v) for u, v in failed_fibers
    }
    dead_switches = set(failed_switches)
    if damaged is None:
        damaged = apply_failures(network, dead_fibers, dead_switches)

    kept: List[Channel] = []
    broken: List[Channel] = []
    for channel in solution.channels:
        if channel_broken(channel, dead_fibers, dead_switches):
            broken.append(channel)
        else:
            kept.append(channel)

    if not broken:
        if residual is not None:
            residual.reserve_capped(channel_usage(kept))
        return RepairReport(
            solution=solution,
            kept_channels=tuple(kept),
            broken_channels=(),
            new_channels=(),
        )

    logger.debug(
        "repair: %d kept / %d broken channels after %d fiber + %d switch "
        "failures",
        len(kept),
        len(broken),
        len(dead_fibers),
        len(dead_switches),
    )
    method = solution.method + "+repair"
    ledger = (
        residual
        if residual is not None
        else CapacityLedger.from_network(damaged)
    )
    try:
        with ledger.transaction():
            new_channels, n_components = _reconnect_kept(
                damaged, solution.users, kept, ledger
            )
            if n_components > 1:
                raise _Unserved()
    except _Unserved:
        logger.info(
            "repair failed: %d user components cannot be reconnected",
            n_components,
        )
        return RepairReport(
            solution=infeasible_solution(solution.users, method),
            kept_channels=tuple(kept),
            broken_channels=tuple(broken),
            new_channels=tuple(new_channels),
        )

    repaired = MUERPSolution(
        channels=tuple(kept + new_channels),
        users=solution.users,
        method=method,
        feasible=True,
        extra_log_rate=solution.extra_log_rate,
    )
    return RepairReport(
        solution=repaired,
        kept_channels=tuple(kept),
        broken_channels=tuple(broken),
        new_channels=tuple(new_channels),
    )


def channel_broken(
    channel: Channel,
    dead_fibers: Set[Tuple[Hashable, Hashable]],
    dead_switches: Set[Hashable],
) -> bool:
    """Whether *channel* uses a dead switch or a cut (``fiber_key``) fiber."""
    if any(s in dead_switches for s in channel.switches):
        return True
    return any(
        fiber_key(u, v) in dead_fibers
        for u, v in zip(channel.path, channel.path[1:])
    )


def _reconnect_kept(
    damaged: QuantumNetwork,
    users: Iterable[Hashable],
    kept: Sequence[Channel],
    ledger: CapacityLedger,
) -> Tuple[List[Channel], int]:
    """Charge *kept* to *ledger*, then reconnect the user components.

    The steps of both repair and splice.  The charge is capped, since a
    capacity-blind tree (``optimal``, ``alg2``) may overbook a switch.
    Returns the added channels and the user components left (1: joined).
    """
    ledger.reserve_capped(channel_usage(kept))
    users = sorted(users, key=repr)
    unions = UnionFind(users)
    for channel in kept:
        unions.union(*channel.endpoints)
    added = reconnect(damaged, users, unions, ledger)
    return added, unions.n_components


def region_of(
    network, seeds: Iterable[Hashable], radius: int = 1
) -> FrozenSet[Hashable]:
    """Nodes within *radius* fiber hops of *seeds* (seeds included).

    The splice masks its ledger to the region of the broken channel's
    path, and the delta bus scopes cache invalidation to the region of
    a changed element.  Seeds that are no longer in *network* (e.g.
    both endpoints of a removed fiber remain, but defensive callers may
    pass stale ids) are kept in the region and simply not expanded.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    frontier = [s for s in seeds]
    region = set(frontier)
    for _ in range(radius):
        next_frontier: List[Hashable] = []
        for node in frontier:
            if node not in network:
                continue
            for neighbor in network.neighbors(node):
                if neighbor not in region:
                    region.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return frozenset(region)


def _largest_served_component(
    users, channels: Sequence[Channel]
) -> Tuple[Hashable, ...]:
    """Largest user subset (>= 2) still spanned by *channels*, or ``()``.

    Ties break toward the lexicographically-largest member list, so two
    same-seed runs always degrade identically.
    """
    unions = UnionFind(sorted(users, key=repr))
    for channel in channels:
        unions.union(*channel.endpoints)
    groups = [tuple(sorted(g, key=repr)) for g in unions.groups()]
    best = max(groups, key=lambda m: (len(m), [repr(u) for u in m]), default=())
    return best if len(best) >= 2 else ()


def recover(
    damaged: QuantumNetwork,
    solution: MUERPSolution,
    failed_fibers: Iterable[Tuple[Hashable, Hashable]] = (),
    failed_switches: Iterable[Hashable] = (),
    residual: Optional[CapacityLedger] = None,
    replan: Optional[Callable[[], MUERPSolution]] = None,
    allow_degradation: bool = False,
    verifier: Optional["SolutionVerifier"] = None,
    report: Optional["ResilienceReport"] = None,
    name: str = "request",
) -> Tuple[str, MUERPSolution, RepairReport]:
    """Recover *solution*: repair, else *replan*, else degrade.

    A step runs only when the one before yielded no tree that passes
    *verifier*'s audit against *damaged* (the network minus every failed
    element); each audit is recorded in *report* under *name*.  Repair
    spends *residual* as in :func:`repair_solution` and rolls back if
    the audit fails, *replan* is a zero-argument planner, and
    *allow_degradation* adds the largest user subset (>= 2) the
    surviving channels still span, held capped on *residual*.  Returns
    ``(step, solution, repair)``: a ``STEP_*`` name and its audited
    tree, or ``""`` and an infeasible marker named after the last method
    tried, plus the repair attempt the ladder started with.
    """

    def audited(candidate: MUERPSolution, users) -> bool:
        if verifier is None:
            return True
        issues = verifier.audit(damaged, candidate, users=users)
        if report is not None:
            report.record_verification(
                name, not issues, "; ".join(v.code for v in issues)
            )
        return not issues

    held = residual.transaction() if residual is not None else _nullcontext()
    with suppress(_Unserved), held:
        rep = repair_solution(
            damaged, solution, failed_fibers, failed_switches, residual, damaged
        )
        if rep.repaired:
            if audited(rep.solution, solution.users):
                return STEP_REPAIR, rep.solution, rep
            raise _Unserved()  # rolls the refused repair back
    last = rep.solution
    if replan is not None:
        last = replan()
        if last.feasible and audited(last, last.users):
            return STEP_REPLAN, last, rep
    subset = ()
    if allow_degradation:
        subset = _largest_served_component(solution.users, rep.kept_channels)
    if subset:
        degraded = MUERPSolution(
            channels=tuple(c for c in rep.kept_channels if c.endpoints[0] in subset),
            users=frozenset(subset),
            method=solution.method + "+degraded",
            feasible=True,
        )
        if audited(degraded, subset):
            if residual is not None:
                residual.reserve_capped(degraded.switch_usage())
            return STEP_DEGRADE, degraded, rep
    return "", infeasible_solution(solution.users, last.method), rep
