"""The incremental re-solve engine: delta streams in, maintained tree out.

:class:`IncrementalRouter` consumes a stream of
:class:`~repro.incremental.events.DeltaEvent` and keeps one served
entanglement tree alive across it, applying the classify/splice/escalate
ladder of :mod:`repro.incremental.tree`.  It runs in two modes that
execute the *same policy code* and are required to produce byte-identical
aggregates (:meth:`digest`):

* ``mode="incremental"`` — the hot path: the damaged topology view is
  maintained by applying each delta in place (O(degree) per event,
  routing snapshot included) and the break classification tests only
  the firing element;
* ``mode="from_scratch"`` — the reference: every event rebuilds the
  damaged view with a full :func:`~repro.extensions.recovery.
  apply_failures` copy and re-derives the break set against *all*
  active faults, the way the online loop behaved before this subsystem.

Because both modes make identical decisions from identical inputs, any
divergence is a bug in the delta machinery — which is exactly what the
equivalence suite and the churn benchmark's byte-equality gate detect.

A third mode, ``mode="resolve"``, is the naive throughput baseline: no
delta awareness at all — every structural event rebuilds the damaged
view and recomputes the full tree from scratch.  It is *not* part of
the byte-equality contract (a fresh solve after a tree-disjoint cut may
legitimately pick a different equal-rate tree); it exists so the churn
benchmark can price what "recompute from scratch on every change"
costs against the classify/splice/escalate ladder.

All modes run with no channel cache: the initial solve and every
:meth:`IncrementalRouter.apply` sit under
:func:`repro.exec.cache.bypassed`, whatever cache the caller activated.
An exact cache key can never repeat here — every structural event
changes the routing fingerprint and every capacity crossing changes the
blocked set — so each lookup would pay for a fingerprint and a key and
never hit.  Sweeps (:class:`~repro.exec.engine.ExecutionEngine`) keep
the cache.

Capacity-crossing events model *external* load: a crossing to blocked
reserves the switch's free qubits down to below the relay threshold on
the shared ledger; the crossing back releases them.  The served tree's
own reservations are never touched by crossings (reserved qubits are
reserved), matching the online scheduler's semantics.
"""

from __future__ import annotations

from contextlib import nullcontext, suppress
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import repro.obs.metrics as obs_metrics
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger, QUBITS_PER_CHANNEL
from repro.core.prim_based import solve_prim
from repro.core.problem import MUERPSolution, infeasible_solution
from repro.exec import cache as exec_cache
from repro.extensions.recovery import apply_failures
from repro.incremental.events import DeltaEvent, DeltaKind
from repro.incremental.tree import (
    DISJOINT,
    REPLACEABLE,
    STRUCTURAL,
    classify_break,
    splice_solution,
)
from repro.network.graph import QuantumNetwork
from repro.utils.rng import ensure_rng

__all__ = ["EventOutcome", "IncrementalRouter"]

#: Router actions, in the order they appear in reports.
ACTIONS = ("noop", "splice", "escalate", "reacquire", "lost")

#: Per-event rng streams must be identical across modes and runs; the
#: stride keeps them disjoint from the initial-solve stream.
_RNG_STRIDE = 1_000_003


class _Rejected(Exception):
    """Internal control flow: roll back an escalation the audit refused."""


@dataclass(frozen=True)
class EventOutcome:
    """What one delta did to the served tree."""

    index: int
    kind: str
    target: str
    classification: str
    action: str
    feasible: bool
    log_rate: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "target": self.target,
            "classification": self.classification,
            "action": self.action,
            "feasible": self.feasible,
            # repr() round-trips floats exactly; byte-equality of
            # aggregates must not be softened by formatting.
            "log_rate": (
                None if self.log_rate is None else repr(self.log_rate)
            ),
        }


class IncrementalRouter:
    """Maintain one served tree across a delta stream.

    Args:
        network: The intact base topology.
        users: User group to keep entangled (default: all users).
        method: ``"prim"`` or ``"conflict_free"`` — both the initial
            solve and escalations use it.
        seed: Master seed; per-event solver rng streams derive from it
            identically in both modes.
        mode: ``"incremental"``, ``"from_scratch"``, or the naive
            ``"resolve"`` baseline (see module docs).
        verify: Audit spliced and escalated trees with the
            :class:`~repro.verify.verifier.SolutionVerifier` before they
            enter service; a tree that fails the audit is treated as
            unavailable (splice failures escalate, escalation failures
            lose the tree).
        radius: Fiber-hop radius of the splice search region.
    """

    MODES = ("incremental", "from_scratch", "resolve")

    def __init__(
        self,
        network: QuantumNetwork,
        users: Optional[Sequence[Hashable]] = None,
        method: str = "prim",
        seed: int = 0,
        mode: str = "incremental",
        verify: bool = True,
        radius: int = 2,
    ) -> None:
        if method not in ("prim", "conflict_free"):
            raise ValueError(f"unsupported method {method!r}")
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        self.base = network
        self.users: Tuple[Hashable, ...] = tuple(
            users if users is not None else network.user_ids
        )
        if len(self.users) < 2:
            raise ValueError("need at least 2 users")
        self.method = method
        self.seed = int(seed)
        self.mode = mode
        self.radius = radius
        self.verifier = None
        if verify:
            from repro.verify.verifier import SolutionVerifier

            self.verifier = SolutionVerifier()

        self.ledger = CapacityLedger.from_network(network)
        self.active_cuts: set = set()
        self.active_darks: set = set()
        self.external: Dict[Hashable, int] = {}
        self.counters: Dict[str, int] = {}
        self.outcomes: List[EventOutcome] = []
        self._events_applied = 0
        #: Incrementally-maintained post-fault view (incremental mode).
        self._damaged = network.copy()
        #: Per-event rebuilt view (from-scratch mode).
        self._fs_view: Optional[QuantumNetwork] = None

        self.usage: Dict[Hashable, int] = {}
        with exec_cache.bypassed():
            # The fresh ledger holds what a feasible solve reserved.
            self.solution = self._solve_full(
                self._damaged_view(), self.ledger, event_index=-1
            )
            if self.solution.feasible:
                self.usage = self.solution.switch_usage()

    # ------------------------------------------------------------------
    # Damaged-view maintenance
    # ------------------------------------------------------------------
    def _damaged_view(self) -> QuantumNetwork:
        """The current post-fault topology, per the router's mode."""
        if self.mode == "incremental":
            return self._damaged
        if self._fs_view is None:
            self._fs_view = self.base.copy()
        return self._fs_view

    def _apply_structural(self, event: DeltaEvent) -> None:
        """Fold a structural event into the fault state (both modes) and
        into the maintained damaged copy (incremental mode)."""
        incremental = self.mode == "incremental"
        if event.kind is DeltaKind.FIBER_CUT:
            self.active_cuts.add(event.target)
            if incremental and self._damaged.has_fiber(*event.target):
                self._damaged.remove_fiber(*event.target)
        elif event.kind is DeltaKind.FIBER_RESTORE:
            self.active_cuts.discard(event.target)
            if incremental:
                self._restore_fiber(*event.target)
        elif event.kind is DeltaKind.SWITCH_DARK:
            self.active_darks.add(event.target)
            if incremental:
                for fiber in list(
                    self._damaged.incident_fibers(event.target)
                ):
                    self._damaged.remove_fiber(fiber.u, fiber.v)
        elif event.kind is DeltaKind.SWITCH_RECOVER:
            self.active_darks.discard(event.target)
            if incremental:
                for fiber in self.base.incident_fibers(event.target):
                    self._restore_fiber(fiber.u, fiber.v)
        if not incremental:
            # The pre-subsystem online loop rebuilds the damaged view on
            # every active-fault-signature change; the reference mode
            # pays that full copy on every structural event.
            self._fs_view = (
                apply_failures(
                    self.base, self.active_cuts, self.active_darks
                )
                if (self.active_cuts or self.active_darks)
                else self.base.copy()
            )

    @staticmethod
    def _bus_guard():
        """Suspension over the active bus, or a no-op context."""
        from repro.incremental import delta as incremental_delta

        bus = incremental_delta.active()
        return bus.suspended() if bus is not None else nullcontext()

    def _restore_fiber(self, u: Hashable, v: Hashable) -> None:
        """Re-add a base fiber to the damaged copy unless still failed."""
        original = self.base.fiber_between(u, v)
        if original is None or self._damaged.has_fiber(u, v):
            return
        if original.key in self.active_cuts:
            return
        if u in self.active_darks or v in self.active_darks:
            return
        self._damaged.add_fiber(u, v, original.length, original.cores)
        # add_fiber appends; a fresh apply_failures rebuild keeps base
        # order, so realign or equal-cost Dijkstra ties diverge.
        self._damaged.align_fiber_order(self.base, nodes=(u, v))

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: DeltaEvent) -> EventOutcome:
        """Apply one delta; returns the recorded outcome.

        Runs with no channel cache active (see the module docs).
        """
        index = self._events_applied
        self._events_applied += 1
        with exec_cache.bypassed():
            if event.kind is DeltaKind.CAPACITY_CROSSING:
                classification, action = self._apply_capacity(event)
            else:
                # Maintaining the router's own damaged view is
                # bookkeeping over an already-published event; under an
                # active bus it must not re-publish or re-run cache
                # hygiene.
                with self._bus_guard():
                    self._apply_structural(event)
                classification, action = self._maintain_tree(event, index)
        outcome = EventOutcome(
            index=index,
            kind=event.kind.value,
            target=repr(event.target),
            classification=classification,
            action=action,
            feasible=self.solution.feasible,
            log_rate=(
                self.solution.log_rate
                if self.solution.feasible
                else None
            ),
        )
        self.outcomes.append(outcome)
        self._bump(f"classify.{classification}")
        self._bump(f"actions.{action}")
        return outcome

    def run(self, events: Iterable[DeltaEvent]) -> List[EventOutcome]:
        """Apply *events* in order; returns their outcomes."""
        return [self.apply(event) for event in events]

    def _apply_capacity(self, event: DeltaEvent) -> Tuple[str, str]:
        """External load crossing the relay threshold at one switch.

        A served tree keeps its reservations regardless (reserved
        qubits cannot be taken), so crossings never break the tree —
        they only shrink/grow the budget future splices and escalations
        route within.
        """
        switch = event.target
        if event.now_blocked:
            free = self.ledger.available(switch)
            grab = max(free - (QUBITS_PER_CHANNEL - 1), 0)
            if grab:
                self.ledger.reserve({switch: grab})
                self.external[switch] = (
                    self.external.get(switch, 0) + grab
                )
        else:
            held = self.external.pop(switch, 0)
            if held:
                self.ledger.release({switch: held})
        return "capacity", "noop"

    def _maintain_tree(
        self, event: DeltaEvent, index: int
    ) -> Tuple[str, str]:
        reacquire = not self.solution.feasible
        broken: Tuple = ()
        if self.mode == "resolve":
            # Naive baseline: any topology change -> full re-solve.
            classification = "resolve"
        elif reacquire:
            # No served tree: every structural event is a chance to
            # reacquire one (restores may have made it possible again).
            classification = STRUCTURAL
        elif event.kind in (
            DeltaKind.FIBER_RESTORE,
            DeltaKind.SWITCH_RECOVER,
        ):
            # A restoration cannot break a valid tree; rate maintenance
            # (re-optimizing onto restored elements) is out of scope.
            return DISJOINT, "noop"
        else:
            if self.mode == "incremental":
                # The serving tree provably avoids every previously-active
                # failed element (it was routed and verified on the
                # damaged view), so testing the firing element alone
                # equals testing the full active set.
                cuts = {event.target} if event.is_fiber else set()
                darks = set() if event.is_fiber else {event.target}
            else:
                cuts = set(self.active_cuts)
                darks = set(self.active_darks)
            classification, broken = classify_break(
                self.solution, cuts, darks
            )
            if classification == DISJOINT:
                return classification, "noop"
        # The tree's own qubits go back once; a splice or an escalation
        # then spends on the live ledger.
        if self.usage:
            self.ledger.release(self.usage)
            self.usage = {}
        if classification == REPLACEABLE and self._try_splice(broken[0]):
            return classification, "splice"
        return classification, self._escalate(index, reacquire)

    # ------------------------------------------------------------------
    # Repair ladder
    # ------------------------------------------------------------------
    def _try_splice(self, broken) -> bool:
        damaged = self._damaged_view()
        spliced = splice_solution(
            damaged,
            self.solution,
            broken,
            self.ledger,
            radius=self.radius,
        )
        if spliced is not None and self.verifier is not None:
            issues = self.verifier.audit(
                damaged, spliced, users=self.users
            )
            self._bump(
                "splice.verified" if not issues else "splice.rejected"
            )
            if issues:
                spliced = None
        if spliced is None:
            return False
        self.usage = spliced.switch_usage()
        self.ledger.reserve(self.usage)
        self.solution = spliced
        return True

    def _escalate(self, index: int, reacquire: bool) -> str:
        damaged = self._damaged_view()
        with suppress(_Rejected), self.ledger.transaction():
            solution = self._solve_full(damaged, self.ledger, index)
            if solution.feasible:
                if self.verifier is not None and self.verifier.audit(
                    damaged, solution, users=self.users
                ):
                    raise _Rejected()  # rolls the refused tree back
                self.solution = solution
                self.usage = solution.switch_usage()
                return "reacquire" if reacquire else "escalate"
        self.solution = infeasible_solution(
            self.users, self.method + "+lost"
        )
        return "lost"

    def _solve_full(
        self,
        damaged: QuantumNetwork,
        budget: CapacityLedger,
        event_index: int,
    ) -> MUERPSolution:
        rng = ensure_rng(
            self.seed + _RNG_STRIDE * (event_index + 2)
        )
        if self.method == "prim":
            return solve_prim(damaged, self.users, rng=rng, residual=budget)
        return solve_conflict_free(
            damaged, self.users, rng=rng, residual=budget
        )

    def _bump(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc(f"repro.incremental.{name}")

    # ------------------------------------------------------------------
    # Aggregates (the byte-equality surface)
    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, object]:
        """Canonical end-state: everything equivalence compares.

        Floats are rendered with ``repr`` (exact round-trip); orderings
        are explicit; nothing here depends on wall-clock, cache state,
        or mode.
        """
        solution = self.solution
        return {
            "mode-independent": True,
            "method": self.method,
            "users": [repr(u) for u in self.users],
            "events_applied": self._events_applied,
            "final": {
                "feasible": solution.feasible,
                "method": solution.method,
                "log_rate": (
                    repr(solution.log_rate) if solution.feasible else None
                ),
                "channels": [
                    [repr(node) for node in channel.path]
                    for channel in solution.channels
                ],
            },
            "counters": {
                k: self.counters[k] for k in sorted(self.counters)
            },
            "ledger": {
                repr(s): self.ledger.available(s)
                for s in sorted(self.ledger.keys(), key=repr)
            },
            "external": {
                repr(s): self.external[s]
                for s in sorted(self.external, key=repr)
            },
            "faults": {
                "cuts": sorted(repr(c) for c in self.active_cuts),
                "darks": sorted(repr(d) for d in self.active_darks),
            },
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def digest(self) -> str:
        """sha256 of the canonical JSON aggregate."""
        import hashlib
        import json

        payload = json.dumps(
            self.aggregate(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
