"""Load sensing and brownout tiers for the serving path.

Overload protection needs a *signal* before it can act.  The
:class:`LoadSignal` here is derived from the two queues the scheduler
actually owns: qubit occupancy in the
:class:`~repro.core.ledger.CapacityLedger` (how much of the network is
pinned right now) and admission-queue fill (how much demand is already
waiting).  The :class:`BrownoutController` maps that signal onto three
service tiers:

* ``full`` — every admitted request gets full-group service;
* ``degraded`` — requests whose full group cannot be routed are served
  as the largest routable user subset (the PR-1 degradation path,
  applied at admission time instead of after a fault), unless the
  network itself splits the group;
* ``shed`` — new arrivals are refused outright and the queue is not
  drained; only in-flight work proceeds.

Transitions are *hysteretic*: a tier is entered at its ``enter``
threshold but only left at a strictly lower ``exit`` threshold, and
only after ``min_dwell`` slots in the tier — so an oscillating load
signal cannot make the tier flap slot to slot.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.admission.queue import AdmissionQueue
    from repro.core.ledger import CapacityLedger

logger = logging.getLogger("repro.admission.backpressure")

#: Brownout tiers, mildest first.  Index in TIERS = gauge value.
TIER_FULL = "full"
TIER_DEGRADED = "degraded"
TIER_SHED = "shed"
TIERS = (TIER_FULL, TIER_DEGRADED, TIER_SHED)


@dataclass(frozen=True)
class LoadSignal:
    """Instantaneous load view feeding the brownout controller.

    Attributes:
        occupancy: Fraction of total switch-qubit budget currently
            reserved, in [0, 1].
        queue_fill: Admission-queue occupancy fraction, in [0, 1]
            (0 when no queue is configured).
    """

    occupancy: float
    queue_fill: float = 0.0

    @property
    def level(self) -> float:
        """The scalar the tier thresholds compare against."""
        return max(self.occupancy, self.queue_fill)


def measure_load(
    ledger: "CapacityLedger", queue: Optional["AdmissionQueue"] = None
) -> LoadSignal:
    """Current :class:`LoadSignal` from ledger occupancy + queue depth."""
    total_budget = 0
    total_used = 0
    for switch in ledger.keys():
        budget = ledger.budget(switch)
        total_budget += budget
        total_used += max(0, budget - ledger.available(switch))
    occupancy = total_used / total_budget if total_budget else 0.0
    queue_fill = queue.fill if queue is not None else 0.0
    return LoadSignal(occupancy=occupancy, queue_fill=queue_fill)


class BrownoutController:
    """Hysteretic state machine over the brownout tiers.

    Args:
        degrade_enter: Load level at which ``full`` escalates to
            ``degraded``.
        degrade_exit: Level at or below which ``degraded`` may relax to
            ``full`` (must be < ``degrade_enter``).
        shed_enter: Level at which any tier escalates to ``shed``.
        shed_exit: Level at or below which ``shed`` may relax to
            ``degraded`` (must be < ``shed_enter``).
        min_dwell: Slots a tier must be held before it may *relax*
            (escalation is always immediate — protecting the network
            never waits).
    """

    def __init__(
        self,
        degrade_enter: float = 0.70,
        degrade_exit: float = 0.50,
        shed_enter: float = 0.92,
        shed_exit: float = 0.70,
        min_dwell: int = 2,
    ) -> None:
        for name, value in (
            ("degrade_enter", degrade_enter),
            ("degrade_exit", degrade_exit),
            ("shed_enter", shed_enter),
            ("shed_exit", shed_exit),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if degrade_exit >= degrade_enter:
            raise ValueError(
                "degrade_exit must be < degrade_enter (hysteresis band)"
            )
        if shed_exit >= shed_enter:
            raise ValueError(
                "shed_exit must be < shed_enter (hysteresis band)"
            )
        if degrade_enter > shed_enter:
            raise ValueError("degrade_enter cannot exceed shed_enter")
        if min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {min_dwell}")
        self.degrade_enter = degrade_enter
        self.degrade_exit = degrade_exit
        self.shed_enter = shed_enter
        self.shed_exit = shed_exit
        self.min_dwell = min_dwell
        self.tier = TIER_FULL
        self._entered_slot = 0
        #: (slot, new tier) history of every transition, in order.
        self.transitions: List[Tuple[int, str]] = []

    @property
    def tier_level(self) -> int:
        """Numeric tier (gauge-friendly): 0 full, 1 degraded, 2 shed."""
        return TIERS.index(self.tier)

    def _move(self, tier: str, slot: int) -> None:
        logger.info(
            "brownout %s -> %s at slot %d", self.tier, tier, slot
        )
        self.tier = tier
        self._entered_slot = slot
        self.transitions.append((slot, tier))

    def update(self, signal: LoadSignal, slot: int) -> str:
        """Advance the state machine with *signal*; returns the tier."""
        level = signal.level
        # Escalation: immediate, worst tier wins.
        if level >= self.shed_enter:
            if self.tier != TIER_SHED:
                self._move(TIER_SHED, slot)
            return self.tier
        if level >= self.degrade_enter and self.tier == TIER_FULL:
            self._move(TIER_DEGRADED, slot)
            return self.tier
        # Relaxation: hysteretic (exit threshold) + dwell-limited.
        if slot - self._entered_slot < self.min_dwell:
            return self.tier
        if self.tier == TIER_SHED and level <= self.shed_exit:
            self._move(
                TIER_DEGRADED if level > self.degrade_exit else TIER_FULL,
                slot,
            )
        elif self.tier == TIER_DEGRADED and level <= self.degrade_exit:
            self._move(TIER_FULL, slot)
        return self.tier

    def reset(self) -> None:
        self.tier = TIER_FULL
        self._entered_slot = 0
        self.transitions.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BrownoutController(tier={self.tier!r}, "
            f"transitions={len(self.transitions)})"
        )
